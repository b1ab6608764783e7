//! The closed-form models versus the flit-level simulator: agreement at
//! low load, divergence near saturation. This is the paper's Section 1
//! argument ("theoretical models … often prove overly simplistic")
//! turned into assertions.

use netperf::analytic::{CubeModel, TreeModel};
use netperf::prelude::*;

fn quick() -> RunLength {
    RunLength {
        warmup: 1_500,
        total: 7_000,
    }
}

#[test]
fn cube_zero_load_latency_matches_simulation_within_cycles() {
    let model = CubeModel::new(16, 2, 16);
    let spec = named("cube-duato").unwrap();
    let sim = spec
        .clone()
        .with_run_length(quick())
        .try_simulate(0.05)
        .unwrap();
    let measured = sim.mean_latency_cycles();
    let predicted = model.predicted_latency(0.05);
    assert!(
        (measured - predicted).abs() < 6.0,
        "model {predicted:.1} vs simulation {measured:.1} at 5% load"
    );
}

#[test]
fn tree_zero_load_latency_matches_simulation_within_cycles() {
    let model = TreeModel::new(4, 4, 32);
    let spec = named("tree-2vc").unwrap();
    let sim = spec
        .clone()
        .with_run_length(quick())
        .try_simulate(0.05)
        .unwrap();
    let measured = sim.mean_latency_cycles();
    let predicted = model.predicted_latency(0.05);
    assert!(
        (measured - predicted).abs() < 8.0,
        "model {predicted:.1} vs simulation {measured:.1} at 5% load"
    );
}

#[test]
fn models_track_light_load_then_overestimate_contention() {
    // At 20% load the model is within ~40% of the simulator; by 40%
    // it already overestimates latency markedly (single-server M/D/1
    // ignores that adaptive routing and virtual channels *evade* the
    // contention it charges) while staying within 2x. Both facts are
    // part of the paper's "overly simplistic" argument.
    let cube = CubeModel::new(16, 2, 16);
    let spec = named("cube-duato").unwrap();

    let measured = spec
        .clone()
        .with_run_length(quick())
        .try_simulate(0.2)
        .unwrap()
        .mean_latency_cycles();
    let predicted = cube.predicted_latency(0.2);
    let err = (predicted - measured).abs() / measured;
    assert!(
        err < 0.4,
        "20% load: model {predicted:.1}, sim {measured:.1}"
    );

    let measured = spec
        .clone()
        .with_run_length(quick())
        .try_simulate(0.4)
        .unwrap()
        .mean_latency_cycles();
    let predicted = cube.predicted_latency(0.4);
    assert!(
        predicted > measured,
        "the contention-blind model should over-predict: {predicted:.1} vs {measured:.1}"
    );
    assert!(predicted < 2.0 * measured, "but not by more than 2x here");
}

#[test]
fn models_are_overly_optimistic_at_saturation() {
    // The closed forms put saturation at 100% of capacity for both
    // networks; the simulator (like the paper) shows far earlier
    // saturation. That gap must persist — it is the reason the paper
    // exists.
    let cube = CubeModel::new(16, 2, 16);
    let tree = TreeModel::new(4, 4, 32);
    assert!(cube.saturation_fraction() > 0.99);
    assert!(tree.saturation_fraction() > 0.99);

    let det = named("cube-det").unwrap();
    let out = det
        .clone()
        .with_run_length(quick())
        .try_simulate(0.95)
        .unwrap();
    assert!(
        out.accepted_fraction < 0.75,
        "simulated deterministic cube sustained {} — the model's 100% \
         prediction should be wrong by a wide margin",
        out.accepted_fraction
    );

    let t1 = named("tree-1vc").unwrap();
    let out = t1
        .clone()
        .with_run_length(quick())
        .try_simulate(0.95)
        .unwrap();
    assert!(out.accepted_fraction < 0.55);
}

#[test]
fn analytic_mean_distances_match_topology() {
    let cube = CubeModel::new(16, 2, 16);
    assert!((cube.mean_distance() - KAryNCube::new(16, 2).mean_hop_distance()).abs() < 1e-12);
    // Tree model excludes self-pairs; verify against a direct average.
    let tree_model = TreeModel::new(4, 4, 32);
    let tree = KAryNTree::new(4, 4);
    let n = tree.num_nodes();
    let total: usize = (0..n)
        .flat_map(|a| (0..n).map(move |b| (a, b)))
        .filter(|&(a, b)| a != b)
        .map(|(a, b)| tree.min_distance(NodeId(a as u32), NodeId(b as u32)))
        .sum();
    let brute = total as f64 / (n * (n - 1)) as f64;
    assert!((tree_model.mean_distance() - brute).abs() < 1e-12);
}
