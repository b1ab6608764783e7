//! Bit-reproducibility: a simulation is a pure function of its
//! configuration. This is what makes the figures in EXPERIMENTS.md
//! reproducible on any machine, and what makes the parallel sweep
//! identical to a serial one.

use netperf::netsim::sim::run_simulation;
use netperf::prelude::*;

fn fingerprint(out: &netperf::netsim::sim::SimOutcome) -> (u64, u64, u64, u64) {
    (
        out.delivered_packets,
        out.created_packets,
        out.accepted_fraction.to_bits(),
        out.mean_latency_cycles().to_bits(),
    )
}

#[test]
fn identical_configs_produce_identical_outcomes() {
    let spec = named("cube-duato-tiny").unwrap();
    let cfg = spec.config_at(0.6);
    let a = {
        let algo = spec.build_algorithm();
        run_simulation(algo.as_ref(), &cfg)
    };
    let b = {
        let algo = spec.build_algorithm();
        run_simulation(algo.as_ref(), &cfg)
    };
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn different_seeds_produce_different_traces() {
    let spec = named("cube-duato-tiny").unwrap();
    let mut cfg = spec.config_at(0.6);
    let algo = spec.build_algorithm();
    let a = run_simulation(algo.as_ref(), &cfg);
    cfg.seed ^= 1;
    let b = run_simulation(algo.as_ref(), &cfg);
    assert_ne!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn parallel_sweep_matches_serial_exactly() {
    let transposed = named("tree-2vc-tiny")
        .unwrap()
        .with_pairs(&[("pattern", "transpose")])
        .unwrap();
    let grid = [0.2, 0.5, 0.8, 1.0];
    let par = transposed.try_sweep_outcomes(&grid).unwrap();
    let ser: Vec<_> = grid
        .iter()
        .map(|&f| transposed.try_simulate(f).unwrap())
        .collect();
    for (p, s) in par.iter().zip(&ser) {
        assert_eq!(fingerprint(p), fingerprint(s));
    }
}

#[test]
fn seeds_differ_across_grid_points_and_specs() {
    // Two different loads of the same spec, and the same load of two
    // specs, must not share RNG streams: their traces differ even
    // though the measured values could legitimately coincide.
    let spec = Scenario::from_pairs(&[
        ("topology", "cube"),
        ("k", "4"),
        ("algo", "det"),
        ("quick", "true"),
    ])
    .unwrap();
    let c1 = spec.config_at(0.5);
    let c2 = spec.config_at(0.55);
    assert_ne!(c1.seed, c2.seed);
    let other = named("cube-duato-tiny").unwrap();
    let c3 = other.config_at(0.5);
    assert_ne!(c1.seed, c3.seed);
}

/// FNV-1a over a string: a stable digest for comparing telemetry
/// event streams without holding two full JSONL dumps in the failure
/// message.
fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn sharded_runs_are_bit_identical_at_scale() {
    // The beyond-paper 4096-node registry entry, shortened to test
    // length: every (shards, worker-threads) combination must produce
    // the exact SimOutcome of the serial stepper — all fields, not a
    // summary — and the exact telemetry event stream (compared by
    // digest of the JSONL export). The worker-thread axis is what
    // NETPERF_THREADS controls for sharded scenario runs; the explicit
    // parameter keeps the test free of process-global env mutation.
    let scenario = netperf::netsim::named("tree-4ary-6")
        .expect("scale registry entry")
        .with_run_length(RunLength {
            warmup: 100,
            total: 400,
        });
    let load = 0.3;

    let serial = scenario.try_simulate_sharded(load, 1, 1).unwrap();
    let serial_fp = format!("{serial:?}");
    for (shards, threads) in [(2, 1), (2, 4), (4, 1), (4, 4)] {
        let sharded = scenario
            .try_simulate_sharded(load, shards, threads)
            .unwrap();
        assert_eq!(
            serial_fp,
            format!("{sharded:?}"),
            "outcome diverged with {shards} shards x {threads} threads"
        );
    }
    assert!(
        serial.delivered_packets > 0,
        "run too short to mean anything"
    );

    // Traced runs: same outcome and the same event stream.
    let traced = scenario.clone().with_telemetry(TelemetryConfig {
        stride: 100,
        record_events: true,
    });
    let (out1, rec1) = traced.try_simulate_traced_sharded(load, 1, 1).unwrap();
    let jsonl1 = netperf::telemetry::trace::events_jsonl(rec1.events());
    assert!(!jsonl1.is_empty(), "recorder captured no events");
    for (shards, threads) in [(2, 1), (4, 4)] {
        let (out_n, rec_n) = traced
            .try_simulate_traced_sharded(load, shards, threads)
            .unwrap();
        assert_eq!(serial_fp, format!("{out1:?}"));
        assert_eq!(
            format!("{out1:?}"),
            format!("{out_n:?}"),
            "traced outcome diverged with {shards} shards x {threads} threads"
        );
        let jsonl_n = netperf::telemetry::trace::events_jsonl(rec_n.events());
        assert_eq!(
            fnv64(&jsonl1),
            fnv64(&jsonl_n),
            "telemetry event stream diverged with {shards} shards x {threads} threads"
        );
    }
}

#[test]
fn engine_counters_are_stable_across_runs_of_paper_network() {
    // A short paper-size run, twice; guards the hot path against
    // nondeterministic iteration (e.g. hash maps) sneaking in.
    let spec = named("tree-2vc").unwrap();
    let cfg = spec
        .with_pairs(&[("pattern", "bitrev")])
        .unwrap()
        .with_run_length(RunLength {
            warmup: 500,
            total: 2_500,
        })
        .config_at(0.7);
    let algo = spec.build_algorithm();
    let a = run_simulation(algo.as_ref(), &cfg);
    let b = run_simulation(algo.as_ref(), &cfg);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.backlog_packets, b.backlog_packets);
    assert_eq!(a.escape_fraction.to_bits(), b.escape_fraction.to_bits());
}
