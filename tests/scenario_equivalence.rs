//! Equivalence guard for the scenario refactor.
//!
//! The golden tuples below were captured from the pre-scenario
//! experiment harness (label, pattern, offered load →
//! derived seed, created packets, delivered packets, accepted-fraction
//! bits) at `RunLength::quick()`. The scenario plane must reproduce
//! them **bit-for-bit**: same FNV-derived seeds, same injection rates,
//! same throttle rule, hence the same packet counters and the same f64
//! accepted fraction down to the last ulp.
//!
//! If one of these assertions fires after an intentional
//! physics/engine change, recapture the goldens and say so loudly in
//! the PR; if it fires after a refactor, the refactor is wrong.

use netperf::prelude::*;

/// (label, pattern, load, seed, created, delivered, accepted.to_bits()).
const GOLDEN: &[(&str, &str, f64, u64, u64, u64, u64)] = &[
    (
        "cube, deterministic",
        "uniform",
        0.3,
        0x7395d988bd306e9e,
        12074,
        11940,
        0x3fd3513404ea4a8c,
    ),
    (
        "cube, deterministic",
        "uniform",
        0.6,
        0x73cc5988bd5ed78e,
        24056,
        22069,
        0x3fe213cd35a85879,
    ),
    (
        "cube, deterministic",
        "uniform",
        0.9,
        0xabd12e00d61c8ebe,
        36068,
        19960,
        0x3fe095ed288ce704,
    ),
    (
        "cube, deterministic",
        "transpose",
        0.3,
        0x1ed47719eb3ade61,
        11326,
        9041,
        0x3fce28a71de69ad4,
    ),
    (
        "cube, deterministic",
        "transpose",
        0.6,
        0x1f777719ebc53fb1,
        22468,
        9169,
        0x3fcf23886594af4f,
    ),
    (
        "cube, deterministic",
        "transpose",
        0.9,
        0x4ae8c01dfa3e7995,
        33545,
        9186,
        0x3fcf305532617c1c,
    ),
    (
        "cube, Duato",
        "uniform",
        0.3,
        0x7b5b32331019f41d,
        11968,
        11838,
        0x3fd32474538ef34d,
    ),
    (
        "cube, Duato",
        "uniform",
        0.6,
        0x7ab832330f8f92cd,
        23782,
        23434,
        0x3fe300ef34d6a162,
    ),
    (
        "cube, Duato",
        "uniform",
        0.9,
        0xc60bf27f90b4d159,
        35720,
        33011,
        0x3feb01f212d77319,
    ),
    (
        "cube, Duato",
        "transpose",
        0.3,
        0x55a53a1028cbb53e,
        11328,
        11198,
        0x3fd21c154c985f07,
    ),
    (
        "cube, Duato",
        "transpose",
        0.6,
        0x55023a10284153ee,
        22450,
        18567,
        0x3fdec1de69ad42c4,
    ),
    (
        "cube, Duato",
        "transpose",
        0.9,
        0xa5665c8a3735b89e,
        33766,
        19299,
        0x3fe0284ea4a8c155,
    ),
    (
        "fat tree, 1 vc",
        "uniform",
        0.3,
        0x15e5356d48c53172,
        12011,
        11777,
        0x3fd32793dd97f62b,
    ),
    (
        "fat tree, 1 vc",
        "uniform",
        0.6,
        0x15af356d4897a202,
        24083,
        13864,
        0x3fd6e474538ef34d,
    ),
    (
        "fat tree, 1 vc",
        "uniform",
        0.9,
        0x309abb03d7389b8a,
        36341,
        13869,
        0x3fd6e92d77318fc5,
    ),
    (
        "fat tree, 1 vc",
        "transpose",
        0.3,
        0x3884bf236dfaaf7d,
        11167,
        10995,
        0x3fd1dc1bda5119ce,
    ),
    (
        "fat tree, 1 vc",
        "transpose",
        0.6,
        0x38bb3f236e29186d,
        22179,
        14633,
        0x3fd810624dd2f1aa,
    ),
    (
        "fat tree, 1 vc",
        "transpose",
        0.9,
        0xd5ecec7e9f1780f9,
        33215,
        14412,
        0x3fd7b8fc504816f0,
    ),
    (
        "fat tree, 2 vc",
        "uniform",
        0.3,
        0x1b5d2fdb2b53ba17,
        11991,
        11780,
        0x3fd326cf41f212d7,
    ),
    (
        "fat tree, 2 vc",
        "uniform",
        0.6,
        0x1c00afdb2bdef4e7,
        24223,
        21366,
        0x3fe197126e978d50,
    ),
    (
        "fat tree, 2 vc",
        "uniform",
        0.9,
        0x1f4310219fdd6827,
        35918,
        21259,
        0x3fe1a2e7d566cf42,
    ),
    (
        "fat tree, 2 vc",
        "transpose",
        0.3,
        0xbd7d1e7788479b74,
        11332,
        11160,
        0x3fd21a5119ce075f,
    ),
    (
        "fat tree, 2 vc",
        "transpose",
        0.6,
        0xbcd99e7787bc60a4,
        22359,
        21338,
        0x3fe17f53f7ced917,
    ),
    (
        "fat tree, 2 vc",
        "transpose",
        0.9,
        0xbedee9a4fc81d770,
        33786,
        22494,
        0x3fe295a6b50b0f28,
    ),
    (
        "fat tree, 4 vc",
        "uniform",
        0.3,
        0xa3c1307b28370f05,
        12078,
        11905,
        0x3fd35484b5dcc63f,
    ),
    (
        "fat tree, 4 vc",
        "uniform",
        0.6,
        0xa464307b28c17055,
        23873,
        23215,
        0x3fe31947ae147ae1,
    ),
    (
        "fat tree, 4 vc",
        "uniform",
        0.9,
        0xaf4edc87c8dc15d1,
        35555,
        27248,
        0x3fe6a5b573eab368,
    ),
    (
        "fat tree, 4 vc",
        "transpose",
        0.3,
        0x87f9f0d63d05ad06,
        11193,
        11011,
        0x3fd1e36ae7d566cf,
    ),
    (
        "fat tree, 4 vc",
        "transpose",
        0.6,
        0x87c370d63cd74416,
        22191,
        21680,
        0x3fe1c6a161e4f766,
    ),
    (
        "fat tree, 4 vc",
        "transpose",
        0.9,
        0x95efd39430ccfbb6,
        33811,
        27796,
        0x3fe6fee48e8a71de,
    ),
];

fn paper_scenario_by_label(label: &str) -> Scenario {
    paper_scenarios()
        .into_iter()
        .find(|s| s.label() == label)
        .unwrap_or_else(|| panic!("no paper scenario labelled {label:?}"))
}

fn golden(
    label: &str,
    pattern: &str,
    load: f64,
) -> &'static (&'static str, &'static str, f64, u64, u64, u64, u64) {
    GOLDEN
        .iter()
        .find(|g| g.0 == label && g.1 == pattern && g.2 == load)
        .expect("golden entry present")
}

#[test]
fn derived_seeds_match_the_pre_refactor_goldens() {
    for &(label, pattern, load, seed, ..) in GOLDEN {
        let scenario = paper_scenario_by_label(label)
            .with_pairs(&[("pattern", pattern)])
            .unwrap()
            .with_run_length(RunLength::quick());
        assert_eq!(
            scenario.config_at(load).seed,
            seed,
            "seed mismatch for {label} / {pattern} @ {load}"
        );
        // The legacy wrapper derives the very same seed.
        assert_eq!(
            derived_seed(label, Pattern::parse(pattern).unwrap(), load),
            seed
        );
    }
}

#[test]
fn registry_counters_are_bit_identical_to_the_legacy_harness() {
    // Uniform at three loads for all five paper entries (run in
    // parallel per scenario), transpose at the mid load only — enough
    // to cover every scenario × pattern combination without burning
    // minutes of test time.
    let loads = [0.3, 0.6, 0.9];
    for name in ["cube-det", "cube-duato", "tree-1vc", "tree-2vc", "tree-4vc"] {
        let scenario = named(name).unwrap().with_run_length(RunLength::quick());
        let outcomes = scenario.try_sweep_outcomes(&loads).unwrap();
        for (load, out) in loads.iter().zip(&outcomes) {
            let &(.., created, delivered, bits) = golden(scenario.label(), "uniform", *load);
            assert_eq!(
                out.created_packets, created,
                "{name} uniform @ {load}: created"
            );
            assert_eq!(
                out.delivered_packets, delivered,
                "{name} uniform @ {load}: delivered"
            );
            assert_eq!(
                out.accepted_fraction.to_bits(),
                bits,
                "{name} uniform @ {load}: accepted fraction not bit-identical"
            );
        }

        let transposed = scenario.with_pairs(&[("pattern", "transpose")]).unwrap();
        let out = transposed.try_simulate(0.6).unwrap();
        let &(.., created, delivered, bits) = golden(transposed.label(), "transpose", 0.6);
        assert_eq!(out.created_packets, created, "{name} transpose: created");
        assert_eq!(
            out.delivered_packets, delivered,
            "{name} transpose: delivered"
        );
        assert_eq!(
            out.accepted_fraction.to_bits(),
            bits,
            "{name} transpose: accepted"
        );
    }
}

#[test]
fn throttle_rule_matches_the_papers_reference_28() {
    // Cubes throttle at half their 2nV network lanes; trees never do.
    for name in ["cube-det", "cube-duato"] {
        let cfg = named(name).unwrap().config_at(0.5);
        assert_eq!(cfg.injection_limit, Some(8), "{name}");
    }
    for name in ["tree-1vc", "tree-2vc", "tree-4vc"] {
        let cfg = named(name).unwrap().config_at(0.5);
        assert_eq!(cfg.injection_limit, None, "{name}");
    }
}

#[test]
fn recording_probe_leaves_golden_counters_bit_identical() {
    // The telemetry plane must be a pure observer: running the same
    // scenario through `simulate_traced` (FlightRecorder probe, event
    // log on) must reproduce the NullProbe goldens bit-for-bit.
    for name in ["cube-duato", "tree-2vc"] {
        let scenario = named(name)
            .unwrap()
            .with_run_length(RunLength::quick())
            .with_telemetry(TelemetryConfig::default());
        for load in [0.3, 0.9] {
            let (out, rec) = scenario.try_simulate_traced(load).unwrap();
            let &(.., created, delivered, bits) = golden(scenario.label(), "uniform", load);
            assert_eq!(out.created_packets, created, "{name} @ {load}: created");
            assert_eq!(
                out.delivered_packets, delivered,
                "{name} @ {load}: delivered"
            );
            assert_eq!(
                out.accepted_fraction.to_bits(),
                bits,
                "{name} @ {load}: accepted fraction perturbed by the probe"
            );
            // And the probe actually recorded the run it watched: it
            // sees every delivery, including the warm-up ones the
            // outcome's measured counter excludes.
            assert!(!rec.events().is_empty(), "{name} @ {load}: no events");
            assert!(
                rec.breakdowns().len() as u64 >= delivered,
                "{name} @ {load}: fewer breakdowns ({}) than measured deliveries ({delivered})",
                rec.breakdowns().len()
            );
        }
    }
}
