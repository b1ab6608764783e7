//! Section 9's spatial claims, asserted from the engine's per-channel
//! flit counters on the real 256-node cube.

use netperf::netsim::engine::Engine;
use netperf::prelude::*;
use netperf::traffic::{Bernoulli, Pattern as P, TrafficGen};

fn forwarded(pattern: P, cycles: u32) -> Vec<u64> {
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
    eng.run(cycles);
    eng.router_forwarded_flits()
}

fn diagonal_mean(loads: &[u64]) -> f64 {
    (0..16).map(|i| loads[i + 16 * i]).sum::<u64>() as f64 / 16.0
}

fn grid_mean(loads: &[u64]) -> f64 {
    loads.iter().sum::<u64>() as f64 / loads.len() as f64
}

#[test]
fn transpose_congests_the_diagonal() {
    // "a continuous area of congestion along this diagonal".
    let loads = forwarded(P::Transpose, 6_000);
    let ratio = diagonal_mean(&loads) / grid_mean(&loads);
    assert!(ratio > 1.4, "diagonal only {ratio:.2}x the mean");
    // And it is *continuous*: every diagonal router is above the mean.
    let mean = grid_mean(&loads);
    for i in 0..16 {
        assert!(
            loads[i + 16 * i] as f64 > mean,
            "diagonal router ({i},{i}) below the grid mean"
        );
    }
}

#[test]
fn uniform_is_spatially_flat() {
    let loads = forwarded(P::Uniform, 6_000);
    let mean = grid_mean(&loads);
    let max = *loads.iter().max().unwrap() as f64;
    let min = *loads.iter().min().unwrap() as f64;
    assert!(
        max / mean < 1.15,
        "hot spot under uniform traffic: {}",
        max / mean
    );
    assert!(
        min / mean > 0.85,
        "cold spot under uniform traffic: {}",
        min / mean
    );
}

#[test]
fn bitrev_leaves_underloaded_areas() {
    // "some underloaded areas … according to a symmetric layout": the
    // spread of router loads is much wider than under uniform traffic,
    // and the minimum sits well below the mean.
    let loads = forwarded(P::BitReversal, 6_000);
    let mean = grid_mean(&loads);
    let min = *loads.iter().min().unwrap() as f64;
    // Uniform traffic keeps every router within ~15% of the mean (see
    // `uniform_is_spatially_flat`); bit reversal's silent palindromes
    // carve visibly colder regions.
    assert!(
        min / mean < 0.78,
        "no underloaded area: min/mean {}",
        min / mean
    );
    // Symmetric layout: the load map equals its transpose reflection
    // within noise, aggregated over quadrant sums.
    let q = |x0: usize, y0: usize| -> u64 {
        let mut sum = 0u64;
        for dy in 0..8 {
            for dx in 0..8 {
                sum += loads[(x0 + dx) + 16 * (y0 + dy)];
            }
        }
        sum
    };
    let (a, b, c, d) = (q(0, 0), q(8, 0), q(0, 8), q(8, 8));
    let offdiag_ratio = b as f64 / c as f64;
    assert!(
        (0.8..1.25).contains(&offdiag_ratio),
        "asymmetric quadrants: {offdiag_ratio}"
    );
    let diag_ratio = a as f64 / d as f64;
    assert!(
        (0.8..1.25).contains(&diag_ratio),
        "asymmetric diagonal quadrants: {diag_ratio}"
    );
}

#[test]
fn link_counters_are_consistent_with_delivery() {
    // Ejection-channel counters must sum to the delivered flits.
    let spec = named("cube-duato-tiny").unwrap();
    let norm = spec.normalization();
    let algo = spec.build_algorithm();
    let rate = norm.packet_rate(0.4);
    let gen = TrafficGen::new(P::Uniform, 16);
    let mut eng = Engine::new(
        algo.as_ref(),
        4,
        16,
        gen,
        &move |_| Box::new(Bernoulli::new(rate)),
        3,
    );
    eng.run(4_000);
    let eject_port = 2 * 2; // 2n for n = 2
    let ejected: u64 = (0..16).map(|r| eng.link_flits(r, eject_port)).sum();
    assert_eq!(ejected, eng.counters().delivered_flits);
    assert!(ejected > 0);
}
