//! One kernel, many ways to drive it — all observationally equivalent.
//!
//! The engine has one lane store and one set of phase handlers; how a
//! run executes varies along three axes that must never change a
//! result: the *schedule* (every cycle, or the wheel that `netperf`
//! runs on), the *partition* (serial, or sharded over 2..6 shards on
//! one or more threads) and the *scan* (worklists and occupancy masks,
//! or the `reference` audit that visits every lane — compiled under the
//! `reference-engine` feature). For every one of the paper's five
//! router configurations, at loads below, around, and above saturation,
//! every leg must produce *bit-identical* outcomes: counters at every
//! chunk boundary, the packet table, the full engine state hash, the
//! telemetry event stream — healthy, under permanent and transient
//! faults, traced, and across a snapshot/resume mid-drain onto a
//! different shard count.
//!
//! Agreement among the legs cannot catch an error they share (they
//! share the handlers), so every leg also checks flit and credit
//! conservation from the lane banks every 256 cycles
//! ([`Engine::check_conservation`]).

use netsim::engine::Engine;
use netsim::fault::{FaultModel, FaultPlan, FaultState};
use netsim::scenario::{paper_scenarios, RunLength, Scenario};
use netsim::sim::SimConfig;
use netsim::wiring::Wiring;
use netsim::ShardPlan;
use routing::RoutingAlgorithm;
use telemetry::{trace, FlightRecorder, Geometry, NullProbe, Probe, TelemetryConfig};
use traffic::{Bernoulli, InjectionProcess, Rng64, TrafficGen};

type DynEngine<'a, P = NullProbe, F = netsim::NoFaults> = Engine<'a, dyn RoutingAlgorithm, P, F>;

/// One way of driving the engine: schedule × scan, optionally sharded
/// as `(shards, threads)`.
#[derive(Clone, Copy, Debug)]
enum Leg {
    Every(Option<(usize, usize)>),
    Wheel(Option<(usize, usize)>),
    Reference(Option<(usize, usize)>),
}

/// An engine, the leg that drives it, and the shard plan if any.
struct Driven<'a, P: Probe, F: FaultModel> {
    eng: DynEngine<'a, P, F>,
    leg: Leg,
    plan: Option<ShardPlan>,
}

impl<'a, P: Probe, F: FaultModel + Sync> Driven<'a, P, F> {
    fn new(eng: DynEngine<'a, P, F>, leg: Leg) -> Self {
        let (Leg::Every(sharding) | Leg::Wheel(sharding) | Leg::Reference(sharding)) = leg;
        let plan = sharding.map(|(shards, threads)| {
            let plan = eng.shard_plan(shards, threads);
            assert!(plan.shards() >= 2, "{leg:?}: want a real decomposition");
            plan
        });
        Driven { eng, leg, plan }
    }

    /// Advance by `cycles`, checking conservation every 256 cycles.
    fn run(&mut self, cycles: u32) {
        let mut left = cycles;
        while left > 0 {
            let n = left.min(256);
            left -= n;
            let eng = &mut self.eng;
            let ran = match (self.leg, self.plan.as_mut()) {
                (Leg::Every(_), None) => eng.run_checked(n),
                (Leg::Every(_), Some(plan)) => eng.run_checked_sharded(n, plan),
                (Leg::Wheel(_), None) => eng.run_checked_wheel(n),
                (Leg::Wheel(_), Some(plan)) => eng.run_checked_wheel_sharded(n, plan),
                (Leg::Reference(_), None) => eng.run_checked_reference(n),
                (Leg::Reference(_), Some(plan)) => eng.run_checked_reference_sharded(n, plan),
            };
            assert_eq!(ran, Ok(()), "{:?} stalled", self.leg);
            let conserved = self.eng.check_conservation();
            assert_eq!(
                conserved,
                Ok(()),
                "{:?} at cycle {}",
                self.leg,
                self.eng.cycle()
            );
        }
    }
}

/// Drive one engine per leg through `cycles` in chunks of `chunk`,
/// asserting bit-identical observable state against the first leg:
/// counters and state hash at every chunk boundary (the hash also makes
/// a wheel leg leave and remount its wheel there), the packet table and
/// the mask/worklist invariants at the end. Returns the engines.
fn assert_legs_agree<'a, P: Probe, F: FaultModel + Sync>(
    what: &str,
    build: impl Fn() -> DynEngine<'a, P, F>,
    legs: &[Leg],
    cycles: u32,
    chunk: u32,
) -> Vec<DynEngine<'a, P, F>> {
    let mut driven: Vec<_> = legs.iter().map(|&leg| Driven::new(build(), leg)).collect();
    let mut done = 0;
    while done < cycles {
        let n = chunk.min(cycles - done);
        done += n;
        driven.iter_mut().for_each(|d| d.run(n));
        let (first, rest) = driven.split_first_mut().unwrap();
        for d in rest {
            let (a, b) = (first.leg, d.leg);
            assert_eq!(
                first.eng.counters(),
                d.eng.counters(),
                "{what}: {a:?} vs {b:?}: counters diverged by cycle {done}"
            );
            assert_eq!(
                first.eng.state_hash(),
                d.eng.state_hash(),
                "{what}: {a:?} vs {b:?}: state diverged by cycle {done}"
            );
        }
    }
    let (first, rest) = driven.split_first().unwrap();
    for d in rest {
        let leg = d.leg;
        assert_eq!(first.eng.packets(), d.eng.packets(), "{what}: {leg:?}");
        assert_eq!(d.eng.check_worklist_invariant(), Ok(()), "{what}: {leg:?}");
    }
    // The run must have actually exercised the network.
    assert!(
        first.eng.counters().delivered_packets > 0,
        "{what}: nothing delivered"
    );
    driven.into_iter().map(|d| d.eng).collect()
}

/// A paper spec's config at `fraction` of capacity over `cycles`.
fn config(spec: &Scenario, fraction: f64, cycles: u32) -> SimConfig {
    let len = RunLength {
        warmup: cycles / 4,
        total: cycles,
    };
    spec.clone().with_run_length(len).config_at(fraction)
}

/// Build one engine for a paper spec's config (the same construction
/// `run_simulation` performs; `config_at` always yields a Bernoulli
/// injection process).
fn build_engine<'a, P: Probe, F: FaultModel>(
    algo: &'a (dyn RoutingAlgorithm + 'static),
    cfg: &SimConfig,
    probe: P,
    faults: F,
) -> DynEngine<'a, P, F> {
    let pattern = TrafficGen::new(cfg.pattern, algo.topology().num_nodes());
    let rate = cfg.injection.mean_rate();
    let mut eng = Engine::with_probe_and_faults(
        algo,
        cfg.buffer_depth,
        cfg.flits_per_packet,
        pattern,
        &move |_| Box::new(Bernoulli::new(rate)) as Box<dyn InjectionProcess>,
        cfg.seed,
        probe,
        faults,
    );
    eng.set_injection_limit(cfg.injection_limit);
    eng.set_request_reply(cfg.request_reply);
    eng
}

/// All five paper configurations at one load, healthy and untraced.
fn assert_paper_configs_agree(fraction: f64, cycles: u32, chunk: u32, legs: &[Leg]) {
    for spec in paper_scenarios() {
        let cfg = config(&spec, fraction, cycles);
        let algo = spec.build_algorithm();
        let what = format!("{} at load {fraction}", spec.label());
        let build = || build_engine(algo.as_ref(), &cfg, NullProbe, netsim::NoFaults);
        assert_legs_agree(&what, build, legs, cycles, chunk);
    }
}

// ---------------------------------------------------------------------
// Masked kernel ≡ reference audit, on both schedules.
// ---------------------------------------------------------------------

const SCANS: [Leg; 3] = [Leg::Wheel(None), Leg::Every(None), Leg::Reference(None)];

/// Low load: mostly idle network — the regime where the worklists skip
/// almost all routers and the wheel almost all cycles.
#[test]
fn paper_configs_low_load() {
    assert_paper_configs_agree(0.15, 2_500, 500, &SCANS);
}

/// Medium load: busy but below saturation.
#[test]
fn paper_configs_medium_load() {
    assert_paper_configs_agree(0.5, 2_500, 500, &SCANS);
}

/// Past saturation: every lane contended, worklists near-full, limited
/// injection active on the cubes.
#[test]
fn paper_configs_saturation_load() {
    assert_paper_configs_agree(1.2, 2_000, 500, &SCANS);
}

// ---------------------------------------------------------------------
// Sharded ≡ serial.
// ---------------------------------------------------------------------

/// All five paper configurations: sequential shard execution (2 and 4
/// shards) and threaded execution must match the serial run bit for
/// bit at a busy load, on both schedules and under the audit.
#[test]
fn paper_configs_sharded() {
    let legs = [
        Leg::Every(None),
        Leg::Every(Some((2, 1))),
        Leg::Wheel(Some((4, 1))),
        Leg::Every(Some((4, 4))),
        Leg::Reference(Some((3, 2))),
    ];
    assert_paper_configs_agree(0.5, 1_500, 500, &legs);
}

/// Saturation, where every handoff queue and the routing RNG are
/// maximally exercised.
#[test]
fn paper_configs_sharded_saturation() {
    let legs = [
        Leg::Every(None),
        Leg::Wheel(Some((4, 4))),
        Leg::Wheel(Some((6, 2))),
    ];
    assert_paper_configs_agree(1.2, 1_000, 500, &legs);
}

/// The first paper configuration under `plan`, driven by every leg.
fn assert_faulted_legs_agree(plan: &FaultPlan, legs: &[Leg]) {
    let spec = &paper_scenarios()[0];
    let cycles = 1_500;
    let cfg = config(spec, 0.5, cycles);
    let algo = spec.build_algorithm();
    let build = || {
        let state: FaultState = plan
            .compile(&Wiring::from_topology(algo.topology()))
            .expect("fault plan compiles");
        build_engine(algo.as_ref(), &cfg, NullProbe, state)
    };
    let engines = assert_legs_agree("faulted", build, legs, cycles, 500);
    let c = engines[0].counters();
    assert!(c.dropped_packets + c.unroutable_packets > 0);
}

/// The fault plane must survive sharding: dead links and a dead router
/// force drops, reroutes, and unroutable packets, and the sharded runs
/// must reproduce every one of them bit for bit.
#[test]
fn sharded_matches_serial_under_faults() {
    let plan = FaultPlan {
        link_fraction: 0.05,
        routers: 1,
        ..FaultPlan::default()
    };
    let legs = [
        Leg::Every(None),
        Leg::Every(Some((4, 4))),
        Leg::Reference(Some((2, 2))),
    ];
    assert_faulted_legs_agree(&plan, &legs);
}

/// The first paper configuration with a recording probe, driven by
/// every leg: the event streams (same events, same order — compared
/// through the JSONL serialization) must be identical.
fn assert_event_streams_agree(legs: &[Leg]) {
    let spec = &paper_scenarios()[0];
    let cycles = 1_200;
    let cfg = config(spec, 0.5, cycles);
    let algo = spec.build_algorithm();
    let build = || {
        let w = Wiring::from_topology(algo.topology());
        let rec = FlightRecorder::new(
            TelemetryConfig {
                stride: 100,
                record_events: true,
            },
            Geometry {
                routers: w.num_routers,
                ports: w.ports,
                vcs: algo.num_vcs(),
                nodes: w.num_nodes,
            },
        );
        build_engine(algo.as_ref(), &cfg, rec, netsim::NoFaults)
    };
    let engines = assert_legs_agree("traced", build, legs, cycles, 400);
    let mut streams = engines
        .into_iter()
        .map(|eng| trace::events_jsonl(eng.into_probe().events()));
    let first = streams.next().unwrap();
    assert!(!first.is_empty(), "no events recorded");
    for (stream, leg) in streams.zip(&legs[1..]) {
        assert!(first == stream, "{leg:?}: telemetry event stream diverged");
    }
}

/// A recording probe observes identical event streams under sharding,
/// because link-phase events are replayed in serial order at the
/// barrier and every other phase emits serially.
#[test]
fn sharded_matches_serial_event_stream() {
    assert_event_streams_agree(&[
        Leg::Every(None),
        Leg::Every(Some((4, 4))),
        Leg::Reference(Some((5, 1))),
    ]);
}

// ---------------------------------------------------------------------
// Wheel schedule ≡ every-cycle schedule.
// ---------------------------------------------------------------------

const SCHEDULES: [Leg; 3] = [Leg::Every(None), Leg::Wheel(None), Leg::Wheel(Some((4, 2)))];

/// Low load, in uneven chunks (so the wheel is left and remounted
/// mid-run): the regime the wheel's idle fast-forward targets.
#[test]
fn paper_configs_wheel_soa_low_load() {
    assert_paper_configs_agree(0.15, 2_500, 613, &SCHEDULES);
}

/// Past saturation: wheel slots near-full, every lane contended.
#[test]
fn paper_configs_wheel_soa_saturation() {
    assert_paper_configs_agree(1.2, 1_500, 577, &SCHEDULES);
}

/// Dead links, a dead router and transient outages: drops, reroutes
/// and unroutable packets must be reproduced bit for bit on the wheel
/// (which additionally must not fast-forward over a scheduled fault
/// transition) and under the audit.
#[test]
fn wheel_soa_match_active_under_faults() {
    let plan = FaultPlan {
        link_fraction: 0.05,
        routers: 1,
        transient: Some(netsim::fault::TransientSpec {
            links: 2,
            period: 400,
            down: 80,
        }),
        ..FaultPlan::default()
    };
    let legs = [
        Leg::Every(None),
        Leg::Wheel(None),
        Leg::Wheel(Some((4, 2))),
        Leg::Reference(None),
    ];
    assert_faulted_legs_agree(&plan, &legs);
}

/// A recording probe observes identical event streams on every
/// schedule: the wheel visits the same nodes in the same order as the
/// full scan, and reports fast-forwarded cycles nowhere.
#[test]
fn wheel_soa_match_active_event_stream() {
    assert_event_streams_agree(&[
        Leg::Every(None),
        Leg::Wheel(None),
        Leg::Wheel(Some((4, 2))),
        Leg::Reference(None),
    ]);
}

/// A Bernoulli burst that goes silent after `remaining` cycles — the
/// simplest way to force a genuine drain tail. The countdown lives in
/// the state word, so leaving the wheel replays it faithfully (the
/// contract `run_wheel` requires of custom processes).
struct Burst {
    remaining: u32,
    rate: f64,
}

impl InjectionProcess for Burst {
    fn tick(&mut self, rng: &mut Rng64) -> bool {
        if self.remaining > 0 {
            self.remaining -= 1;
            rng.chance(self.rate)
        } else {
            false
        }
    }
    fn mean_rate(&self) -> f64 {
        0.0
    }
    fn state_word(&self) -> u64 {
        self.remaining as u64
    }
    fn restore_state_word(&mut self, word: u64) {
        self.remaining = word as u32;
    }
}

/// Snapshot mid-drain: a finite injection burst ends, the network
/// starts draining under `leg`, and the snapshot is taken while flits
/// are still in flight. Restoring into a fresh engine and finishing
/// under `resumed_leg` must land on the identical final state (the
/// snapshot encodes neither the wheel nor the partition).
fn assert_resume_mid_drain(leg: Leg, resumed_leg: Leg) {
    let spec = &paper_scenarios()[1];
    let algo = spec.build_algorithm();
    let burst = 500u32;
    let build = || {
        let pattern = TrafficGen::new(traffic::Pattern::Uniform, algo.topology().num_nodes());
        let mk = move |_| {
            Box::new(Burst {
                remaining: burst,
                rate: 0.02,
            }) as Box<dyn InjectionProcess>
        };
        Engine::new(algo.as_ref(), 4, 16, pattern, &mk, 0xD4A1)
    };
    let mut full = Driven::new(build(), leg);
    // Past the end of the burst: injection has ceased for good and the
    // tail of the traffic is still working its way out.
    full.run(burst + 30);
    let c = full.eng.counters();
    assert!(c.created_packets > 0, "burst created nothing");
    assert!(c.in_flight_flits > 0, "already drained — not mid-drain");
    let ident = 0x77EE1;
    let snap = full.eng.snapshot(ident);
    assert_eq!(snap.cycle(), burst + 30);

    let mut resumed = Driven::new(build(), resumed_leg);
    resumed
        .eng
        .restore(&snap, ident)
        .expect("restore mid-drain");
    full.run(2_000);
    resumed.run(2_000);
    let (full, resumed) = (&mut full.eng, &mut resumed.eng);
    assert_eq!(full.counters(), resumed.counters(), "resumed counters");
    assert_eq!(full.packets(), resumed.packets(), "resumed packet table");
    assert_eq!(full.state_hash(), resumed.state_hash());
    // The drain actually completed: everything created was delivered,
    // and the wheel fast-forwarded the all-idle suffix without
    // disturbing the cycle count.
    assert_eq!(full.counters().delivered_packets, c.created_packets);
    assert_eq!(full.counters().in_flight_flits, 0);
    assert_eq!(full.cycle(), burst + 30 + 2_000);
}

#[test]
fn wheel_snapshot_resume_mid_drain() {
    assert_resume_mid_drain(Leg::Wheel(None), Leg::Wheel(None));
}

/// The same contract across partitions: snapshot a 4-shard run, resume
/// it under a *different* shard count.
#[test]
fn wheel_sharded_snapshot_resume_mid_drain() {
    assert_resume_mid_drain(Leg::Wheel(Some((4, 2))), Leg::Wheel(Some((2, 1))));
}

// ---------------------------------------------------------------------
// Property: every leg agrees on random configurations.
// ---------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    // Full-simulation properties are expensive: few cases, short runs.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random seed, injection rate, buffer depth, VC count, topology
    /// family, chunking, shard and thread count: both schedules, the
    /// sharded wheel and the audit must stay bit-identical on
    /// configurations nobody hand-picked, including the chunk-boundary
    /// wheel remounts.
    #[test]
    fn wheel_soa_match_active_on_random_scenarios(
        seed in any::<u64>(),
        rate_milli in 1u32..120,
        buf in 2usize..6,
        vcs in 1usize..5,
        tree_side in any::<bool>(),
        chunk in 37u32..400,
        shards in 2usize..7,
        threads in 1usize..3,
    ) {
        use routing::{CubeDuato, TreeAdaptive};
        use topology::{KAryNCube, KAryNTree};

        // Big enough that several shards get a non-empty router range.
        let algo: Box<dyn RoutingAlgorithm> = if tree_side {
            Box::new(TreeAdaptive::new(KAryNTree::new(2, 7), vcs))
        } else {
            Box::new(CubeDuato::new(KAryNCube::new(16, 2)))
        };
        let n = algo.topology().num_nodes();
        let rate = rate_milli as f64 / 1000.0;
        let build = || {
            let pattern = TrafficGen::new(traffic::Pattern::Uniform, n);
            let mk = move |_| Box::new(Bernoulli::new(rate)) as Box<dyn InjectionProcess>;
            Engine::new(algo.as_ref(), buf, 8, pattern, &mk, seed)
        };
        let legs = [
            Leg::Every(None),
            Leg::Wheel(None),
            Leg::Wheel(Some((shards, threads))),
            Leg::Reference(None),
        ];
        assert_legs_agree("random scenario", build, &legs, 1_000, chunk);
    }
}
