//! Fault-plane contracts, observed from outside: a fault-free plan is
//! bit-identical to the healthy engine, fault outcomes are
//! deterministic across runs and thread counts, every created packet
//! is accounted for (delivered + dropped + unroutable), and the CLI
//! rejects malformed `--faults` specs with a structured error.

use netperf::netsim::engine::Engine;
use netperf::netsim::wiring::Wiring;
use netperf::prelude::*;
use netperf::routing::RoutingAlgorithm;
use netperf::traffic::{InjectionProcess, Rng64, TrafficGen};
use std::process::Command;

/// Injects one packet every `period` ticks until a fixed budget is
/// spent, then goes silent so the network can drain completely.
struct Windowed {
    period: u64,
    count: u64,
    remaining: u64,
}

impl InjectionProcess for Windowed {
    fn tick(&mut self, _rng: &mut Rng64) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.count += 1;
        if self.count.is_multiple_of(self.period) {
            self.remaining -= 1;
            true
        } else {
            false
        }
    }
    fn mean_rate(&self) -> f64 {
        1.0 / self.period as f64
    }
}

/// An empty `FaultPlan` still instantiates the faulted engine
/// (`FaultState` with `ACTIVE = true`), so this checks that the fault
/// machinery is inert — not merely compiled out — when every fault set
/// is empty: counters and the accepted fraction must match the healthy
/// monomorphized path bit for bit. (A scenario maps an empty plan to
/// the healthy network, so the faulted engine is driven directly.)
#[test]
fn empty_fault_plan_is_bit_identical_to_no_faults() {
    for name in ["cube-duato", "tree-4vc"] {
        let healthy = named(name).unwrap().with_run_length(RunLength::quick());
        let empty = FaultPlan::default();
        assert!(empty.is_empty());
        assert_eq!(healthy.with_pairs(&[("faults", "none")]).unwrap(), healthy);
        let algo = healthy.build_algorithm();
        let state = empty
            .compile(&Wiring::from_topology(algo.topology()))
            .unwrap();
        for load in [0.3, 0.6] {
            let a = healthy.try_simulate(load).unwrap();
            let cfg = healthy.config_at(load);
            let (b, _) =
                run_simulation_faulted(algo.as_ref(), &cfg, NullProbe, state.clone()).unwrap();
            assert_eq!(a.created_packets, b.created_packets, "{name} @ {load}");
            assert_eq!(a.delivered_packets, b.delivered_packets, "{name} @ {load}");
            assert_eq!(
                a.accepted_fraction.to_bits(),
                b.accepted_fraction.to_bits(),
                "{name} @ {load}: accepted fraction diverged"
            );
            assert_eq!(
                a.mean_latency_cycles().to_bits(),
                b.mean_latency_cycles().to_bits(),
                "{name} @ {load}: latency diverged"
            );
            assert_eq!(b.dropped_packets, 0, "{name} @ {load}");
            assert_eq!(b.unroutable_packets, 0, "{name} @ {load}");
        }
    }
}

/// Same seed + same fault spec must reproduce the exact same drop /
/// unroutable / delivery counters, run to run and regardless of the
/// sweep worker count.
#[test]
fn fault_outcomes_are_deterministic_across_runs_and_threads() {
    let s = named("cube-duato-5pct")
        .unwrap()
        .with_run_length(RunLength::quick());
    assert!(s.faults().is_some(), "registry entry lost its fault plan");
    let loads = [0.4, 0.8];

    let run = |threads: &str| -> Vec<(u64, u64, u64, u64)> {
        std::env::set_var("NETPERF_THREADS", threads);
        let outs = s.try_sweep_outcomes(&loads).unwrap();
        outs.iter()
            .map(|o| {
                (
                    o.created_packets,
                    o.delivered_packets,
                    o.dropped_packets,
                    o.unroutable_packets,
                )
            })
            .collect()
    };

    let four_a = run("4");
    let four_b = run("4");
    let one = run("1");
    std::env::remove_var("NETPERF_THREADS");

    assert_eq!(four_a, four_b, "run-to-run nondeterminism");
    assert_eq!(four_a, one, "thread-count changed fault outcomes");
    let total_dropped: u64 = one.iter().map(|c| c.2 + c.3).sum();
    assert!(total_dropped > 0, "5% dead links dropped nothing");
}

/// Drive the engine directly with a finite packet budget, let it drain,
/// and check the conservation identity under a heavy fault load:
/// created = delivered + dropped + unroutable, with nothing left in
/// flight or queued at the sources.
#[test]
fn faulted_engine_conserves_packets() {
    let algo = CubeDuato::new(KAryNCube::new(4, 2));
    let plan = FaultPlan {
        link_fraction: 0.15,
        routers: 1,
        ..FaultPlan::default()
    };
    let state = plan
        .compile(&Wiring::from_topology(algo.topology()))
        .unwrap();
    let pattern = TrafficGen::new(Pattern::Uniform, 16);
    let mut eng = Engine::with_probe_and_faults(
        &algo,
        4,
        16,
        pattern,
        &|_| {
            Box::new(Windowed {
                period: 8,
                count: 0,
                remaining: 30,
            })
        },
        1234,
        NullProbe,
        state,
    );
    eng.run_checked(30_000)
        .unwrap_or_else(|stall| panic!("faulted engine wedged: {stall}"));

    let c = eng.counters();
    assert_eq!(
        c.created_packets,
        c.delivered_packets + c.dropped_packets + c.unroutable_packets,
        "packet conservation violated: {c:?}"
    );
    assert_eq!(c.in_flight_flits, 0, "flits left in flight after drain");
    assert_eq!(eng.source_queue_len(), 0, "packets stuck at the sources");
    assert!(
        c.dropped_packets + c.unroutable_packets > 0,
        "fault set had no effect"
    );
    assert!(
        c.dropped_flits >= c.dropped_packets,
        "dropped packets drained no flits"
    );
    assert_eq!(c.delivered_flits, c.delivered_packets * 16);
}

/// `netperf` must reject malformed or unsatisfiable `--faults` specs —
/// and every other hostile value: non-finite or out-of-range loads,
/// inverted run lengths, unbounded grids, unwritable sinks — with exit
/// code 2 and a single structured `error:` line. No panic, no
/// backtrace, no allocation until the process aborts.
#[test]
fn cli_rejects_bad_fault_specs_with_structured_error() {
    let bin = env!("CARGO_BIN_EXE_netperf");
    let cases: &[&[&str]] = &[
        &["run", "--faults", "bananas"],
        &["run", "--faults", "links=2.0"],
        &["run", "--faults", "routers=100000"],
        &["run", "--faults", "transient=1:0:5"],
        &["run", "--load", "nan"],
        &["run", "--load", "-1"],
        &["run", "--load", "inf"],
        &["run", "--load", "1e9"],
        &["run", "--cycles", "0"],
        &["run", "--warmup", "100", "--cycles", "50"],
        &["sweep", "--grid", "0.1:inf:0.1"],
        &["sweep", "--grid", "-inf:1:0.1"],
        &["sweep", "--grid", "0.1:1:1e-12"],
        &["run", "--csv", "/dev/null/x.csv"],
        &["run", "--trace", "/dev/null/t"],
        &[
            "run",
            "--checkpoint-every",
            "500",
            "--snapshot",
            "/dev/null/ck.bin",
        ],
    ];
    for case in cases {
        let out = Command::new(bin)
            .arg(case[0])
            .args(["cube-duato-tiny", "--quick"])
            .args(&case[1..])
            .output()
            .expect("spawn netperf");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{case:?}: expected exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{case:?}: stderr not one line: {stderr}");
        assert!(
            lines[0].starts_with("error:"),
            "{case:?}: unstructured error: {stderr}"
        );
    }
}

/// The faulted CLI path end to end: a tiny registry scenario with an
/// ad-hoc fault spec runs to completion and reports the fault header
/// and drop accounting.
#[test]
fn cli_runs_faulted_scenario() {
    let bin = env!("CARGO_BIN_EXE_netperf");
    let out = Command::new(bin)
        .args([
            "run",
            "cube-duato-tiny",
            "--quick",
            "--load",
            "0.3",
            "--faults",
            "links=0.05,seed=7",
        ])
        .output()
        .expect("spawn netperf");
    assert!(
        out.status.success(),
        "faulted run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("faults: links=0.05,seed=0x7"), "{stdout}");
    assert!(stdout.contains("dropped"), "{stdout}");
}
