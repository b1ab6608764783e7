//! Observational equivalence of the active-set and sharded engines.
//!
//! The engine's worklist/bitmask fast path must be a pure optimization:
//! for every one of the paper's five router configurations, at loads
//! below, around, and above saturation, running the optimized
//! [`Engine::step`] must produce *bit-identical* outcomes — counters
//! and the full packet table — to the naive scan-everything
//! [`Engine::step_reference`] (compiled under the `reference-engine`
//! feature). This is the contract the benchmark harness relies on when
//! it reports the two steppers' throughput as comparable.
//!
//! The sharded stepper ([`Engine::step_sharded`]) extends the same
//! contract one level up: for every shard count and thread count it
//! must be bit-identical to [`Engine::step`] — counters, the packet
//! table, *and* the telemetry event stream — including under an active
//! fault model and a recording probe.
//!
//! Two further axes ride on the same contract: the SoA mask scans'
//! portable-SIMD wide path versus its scalar twin (a runtime flag,
//! [`Engine::set_scalar_scan`] — the chunked wheel/SoA runs below pin
//! one engine to each path), and the wheel×shards composition
//! ([`Engine::step_wheel_sharded`]), which must match bit for bit
//! across healthy, faulted, and traced runs, snapshot/resume
//! mid-drain included.

use netsim::engine::Engine;
use netsim::fault::{FaultPlan, FaultState};
use netsim::scenario::{paper_scenarios, RunLength, Scenario};
use netsim::sim::SimConfig;
use netsim::wiring::Wiring;
use routing::RoutingAlgorithm;
use telemetry::{trace, FlightRecorder, Geometry, NullProbe, TelemetryConfig};
use traffic::{Bernoulli, InjectionProcess, Rng64, TrafficGen};

/// Build one engine for a paper spec's config (the same construction
/// `run_simulation` performs; `config_at` always yields a Bernoulli
/// injection process).
fn build_engine<'a>(algo: &'a (dyn RoutingAlgorithm + 'static), cfg: &SimConfig) -> Engine<'a> {
    let pattern = TrafficGen::new(cfg.pattern, algo.topology().num_nodes());
    let rate = cfg.injection.mean_rate();
    let mut eng = Engine::new(
        algo,
        cfg.buffer_depth,
        cfg.flits_per_packet,
        pattern,
        &move |_| Box::new(Bernoulli::new(rate)) as Box<dyn InjectionProcess>,
        cfg.seed,
    );
    eng.set_injection_limit(cfg.injection_limit);
    eng.set_request_reply(cfg.request_reply);
    eng
}

/// Run the optimized and the reference stepper side by side on one
/// paper configuration and assert identical observable state, both
/// mid-flight and at the end.
fn assert_equivalent(spec: &Scenario, fraction: f64, cycles: u32) {
    let len = RunLength {
        warmup: 500,
        total: cycles,
    };
    let cfg = spec.clone().with_run_length(len).config_at(fraction);
    let algo = spec.build_algorithm();
    let mut opt = build_engine(algo.as_ref(), &cfg);
    let mut refr = build_engine(algo.as_ref(), &cfg);
    for cycle in 0..cycles {
        opt.step();
        refr.step_reference();
        if cycle % 512 == 0 {
            assert_eq!(
                opt.counters(),
                refr.counters(),
                "{} at load {fraction}: counters diverged at cycle {cycle}",
                spec.label()
            );
        }
    }
    assert_eq!(
        opt.counters(),
        refr.counters(),
        "{} at load {fraction}: final counters diverged",
        spec.label()
    );
    assert_eq!(
        opt.packets(),
        refr.packets(),
        "{} at load {fraction}: packet tables diverged",
        spec.label()
    );
    assert_eq!(opt.check_worklist_invariant(), Ok(()), "{}", spec.label());
    assert_eq!(opt.check_credit_invariant(), Ok(()), "{}", spec.label());
    // The run must have actually exercised the network.
    assert!(
        opt.counters().delivered_packets > 0,
        "{} at load {fraction}: nothing delivered",
        spec.label()
    );
}

/// Low load: mostly idle network — the regime where the active sets
/// skip almost all routers.
#[test]
fn paper_configs_low_load() {
    for spec in paper_scenarios() {
        assert_equivalent(&spec, 0.15, 2_500);
    }
}

/// Medium load: busy but below saturation.
#[test]
fn paper_configs_medium_load() {
    for spec in paper_scenarios() {
        assert_equivalent(&spec, 0.5, 2_500);
    }
}

/// Past saturation: every lane contended, worklists near-full, limited
/// injection active on the cubes.
#[test]
fn paper_configs_saturation_load() {
    for spec in paper_scenarios() {
        assert_equivalent(&spec, 1.2, 2_000);
    }
}

// ---------------------------------------------------------------------
// Sharded stepper ≡ serial stepper.
// ---------------------------------------------------------------------

/// Run the serial stepper and one sharded stepper per requested
/// `(shards, threads)` combination in lockstep on the same
/// configuration and assert bit-identical observable state throughout.
fn assert_sharded_equivalent(
    spec: &Scenario,
    fraction: f64,
    cycles: u32,
    combos: &[(usize, usize)],
) {
    let len = RunLength {
        warmup: 500,
        total: cycles,
    };
    let cfg = spec.clone().with_run_length(len).config_at(fraction);
    let algo = spec.build_algorithm();
    let mut serial = build_engine(algo.as_ref(), &cfg);
    let mut sharded: Vec<_> = combos
        .iter()
        .map(|&(s, t)| {
            let eng = build_engine(algo.as_ref(), &cfg);
            let plan = eng.shard_plan(s, t);
            assert!(
                plan.shards() >= 2,
                "{}: want a real decomposition",
                spec.label()
            );
            (eng, plan)
        })
        .collect();
    for cycle in 0..cycles {
        serial.step();
        for (eng, plan) in sharded.iter_mut() {
            eng.step_sharded(plan);
        }
        if cycle % 512 == 0 {
            for ((eng, plan), &(s, t)) in sharded.iter().zip(combos) {
                assert_eq!(
                    serial.counters(),
                    eng.counters(),
                    "{} at load {fraction}: shards={s} threads={t} (plan {}x{}) diverged at cycle {cycle}",
                    spec.label(),
                    plan.shards(),
                    plan.threads(),
                );
            }
        }
    }
    for ((eng, _), &(s, t)) in sharded.iter_mut().zip(combos) {
        assert_eq!(
            serial.counters(),
            eng.counters(),
            "{} at load {fraction}: shards={s} threads={t} final counters diverged",
            spec.label()
        );
        assert_eq!(
            serial.packets(),
            eng.packets(),
            "{} at load {fraction}: shards={s} threads={t} packet tables diverged",
            spec.label()
        );
        assert_eq!(eng.check_worklist_invariant(), Ok(()), "{}", spec.label());
        assert_eq!(eng.check_credit_invariant(), Ok(()), "{}", spec.label());
    }
    assert!(
        serial.counters().delivered_packets > 0,
        "{} at load {fraction}: nothing delivered",
        spec.label()
    );
}

/// All five paper configurations: sequential shard execution (2 and 4
/// shards) and one-thread-per-shard execution must both match the
/// serial stepper bit for bit at a busy load.
#[test]
fn paper_configs_sharded() {
    for spec in paper_scenarios() {
        assert_sharded_equivalent(&spec, 0.5, 1_500, &[(2, 1), (4, 1), (4, 4)]);
    }
}

/// Saturation, where every handoff queue and the routing RNG are
/// maximally exercised.
#[test]
fn paper_configs_sharded_saturation() {
    for spec in paper_scenarios() {
        assert_sharded_equivalent(&spec, 1.2, 1_000, &[(4, 4)]);
    }
}

/// The fault plane must survive sharding: dead links and a dead router
/// force drops, reroutes, and unroutable packets, and the sharded
/// stepper must reproduce every one of them bit for bit.
#[test]
fn sharded_matches_serial_under_faults() {
    let spec = &paper_scenarios()[0];
    let cycles = 1_500;
    let len = RunLength {
        warmup: 500,
        total: cycles,
    };
    let cfg = spec.clone().with_run_length(len).config_at(0.5);
    let algo = spec.build_algorithm();
    let plan = FaultPlan {
        link_fraction: 0.05,
        routers: 1,
        ..FaultPlan::default()
    };
    let build = || -> Engine<'_, dyn RoutingAlgorithm, NullProbe, FaultState> {
        let state = plan
            .compile(&Wiring::from_topology(algo.topology()))
            .expect("fault plan compiles");
        let pattern = TrafficGen::new(cfg.pattern, algo.topology().num_nodes());
        let rate = cfg.injection.mean_rate();
        let mut eng = Engine::with_probe_and_faults(
            algo.as_ref(),
            cfg.buffer_depth,
            cfg.flits_per_packet,
            pattern,
            &move |_| Box::new(Bernoulli::new(rate)) as Box<dyn InjectionProcess>,
            cfg.seed,
            NullProbe,
            state,
        );
        eng.set_injection_limit(cfg.injection_limit);
        eng.set_request_reply(cfg.request_reply);
        eng
    };
    let mut serial = build();
    let mut sharded = build();
    let mut shard_plan = sharded.shard_plan(4, 4);
    for _ in 0..cycles {
        serial.step();
        sharded.step_sharded(&mut shard_plan);
    }
    assert_eq!(
        serial.counters(),
        sharded.counters(),
        "faulted counters diverged"
    );
    assert_eq!(
        serial.packets(),
        sharded.packets(),
        "faulted packet tables diverged"
    );
    assert!(serial.counters().dropped_packets + serial.counters().unroutable_packets > 0);
}

/// A recording probe observes identical event streams (same events,
/// same order — compared through the JSONL serialization) under the
/// sharded stepper, because link-phase events are replayed in serial
/// order at the barrier and every other phase emits serially.
#[test]
fn sharded_matches_serial_event_stream() {
    let spec = &paper_scenarios()[0];
    let cycles = 1_200;
    let len = RunLength {
        warmup: 400,
        total: cycles,
    };
    let cfg = spec.clone().with_run_length(len).config_at(0.5);
    let algo = spec.build_algorithm();
    let build = || -> Engine<'_, dyn RoutingAlgorithm, FlightRecorder> {
        let topo = algo.topology();
        let w = Wiring::from_topology(topo);
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
        let pattern = TrafficGen::new(cfg.pattern, topo.num_nodes());
        let rate = cfg.injection.mean_rate();
        let mut eng = Engine::with_probe(
            algo.as_ref(),
            cfg.buffer_depth,
            cfg.flits_per_packet,
            pattern,
            &move |_| Box::new(Bernoulli::new(rate)) as Box<dyn InjectionProcess>,
            cfg.seed,
            rec,
        );
        eng.set_injection_limit(cfg.injection_limit);
        eng.set_request_reply(cfg.request_reply);
        eng
    };
    let mut serial = build();
    let mut sharded = build();
    let mut shard_plan = sharded.shard_plan(4, 4);
    for _ in 0..cycles {
        serial.step();
        sharded.step_sharded(&mut shard_plan);
    }
    assert_eq!(
        serial.counters(),
        sharded.counters(),
        "traced counters diverged"
    );
    assert_eq!(
        serial.packets(),
        sharded.packets(),
        "traced packet tables diverged"
    );
    let serial_events = trace::events_jsonl(serial.into_probe().events());
    let sharded_events = trace::events_jsonl(sharded.into_probe().events());
    assert!(!serial_events.is_empty(), "no events recorded");
    assert_eq!(
        serial_events, sharded_events,
        "telemetry event streams diverged"
    );
}

// ---------------------------------------------------------------------
// Wheel and SoA steppers ≡ active stepper.
// ---------------------------------------------------------------------

/// Run the active stepper against the SoA, event-wheel, and composed
/// wheel-sharded steppers in uneven chunks (so wheel/SoA state is
/// mounted, drained, written back and remounted mid-run) and assert
/// bit-identical observable state: counters at every chunk boundary,
/// the packet table and the full engine state hash at the end.
///
/// The SoA engine is pinned to the *scalar* twins of the wide mask
/// scans while the wheel engines run the SIMD path, so every chunk
/// boundary is also a simd ≡ scalar ≡ active checkpoint.
fn assert_wheel_soa_equivalent(spec: &Scenario, fraction: f64, cycles: u32, chunk: u32) {
    let len = RunLength {
        warmup: 500,
        total: cycles,
    };
    let cfg = spec.clone().with_run_length(len).config_at(fraction);
    let algo = spec.build_algorithm();
    let mut active = build_engine(algo.as_ref(), &cfg);
    let mut soa = build_engine(algo.as_ref(), &cfg);
    soa.set_scalar_scan(true);
    let mut wheel = build_engine(algo.as_ref(), &cfg);
    wheel.set_scalar_scan(false);
    let mut wheel_sharded = build_engine(algo.as_ref(), &cfg);
    wheel_sharded.set_scalar_scan(false);
    let mut plan = wheel_sharded.shard_plan(4, 2);
    let mut done = 0;
    while done < cycles {
        let n = chunk.min(cycles - done);
        active.run(n);
        soa.run_soa(n);
        wheel.run_wheel(n);
        wheel_sharded.run_wheel_sharded(n, &mut plan);
        done += n;
        assert_eq!(
            active.counters(),
            soa.counters(),
            "{} at load {fraction}: scalar-soa counters diverged at cycle {done}",
            spec.label()
        );
        assert_eq!(
            active.counters(),
            wheel.counters(),
            "{} at load {fraction}: wheel counters diverged at cycle {done}",
            spec.label()
        );
        assert_eq!(
            active.counters(),
            wheel_sharded.counters(),
            "{} at load {fraction}: wheel-sharded counters diverged at cycle {done}",
            spec.label()
        );
    }
    assert_eq!(active.packets(), soa.packets(), "{}", spec.label());
    assert_eq!(active.packets(), wheel.packets(), "{}", spec.label());
    assert_eq!(
        active.packets(),
        wheel_sharded.packets(),
        "{}",
        spec.label()
    );
    let h = active.state_hash();
    assert_eq!(h, soa.state_hash(), "{}: soa state hash", spec.label());
    assert_eq!(h, wheel.state_hash(), "{}: wheel state hash", spec.label());
    assert_eq!(
        h,
        wheel_sharded.state_hash(),
        "{}: wheel-sharded state hash",
        spec.label()
    );
    assert_eq!(wheel.check_worklist_invariant(), Ok(()), "{}", spec.label());
    assert_eq!(wheel.check_credit_invariant(), Ok(()), "{}", spec.label());
    assert_eq!(soa.check_worklist_invariant(), Ok(()), "{}", spec.label());
    assert_eq!(
        wheel_sharded.check_worklist_invariant(),
        Ok(()),
        "{}",
        spec.label()
    );
    assert_eq!(
        wheel_sharded.check_credit_invariant(),
        Ok(()),
        "{}",
        spec.label()
    );
    assert!(
        active.counters().delivered_packets > 0,
        "{} at load {fraction}: nothing delivered",
        spec.label()
    );
}

/// Low load: the regime the wheel's idle fast-forward targets.
#[test]
fn paper_configs_wheel_soa_low_load() {
    for spec in paper_scenarios() {
        assert_wheel_soa_equivalent(&spec, 0.15, 2_500, 613);
    }
}

/// Past saturation: wheel slots near-full, every lane contended.
#[test]
fn paper_configs_wheel_soa_saturation() {
    for spec in paper_scenarios() {
        assert_wheel_soa_equivalent(&spec, 1.2, 1_500, 577);
    }
}

/// Dead links and a dead router: drops, reroutes and unroutable
/// packets must be reproduced bit for bit by both sparse steppers
/// (the wheel additionally must not fast-forward over scheduled
/// transient fault transitions).
#[test]
fn wheel_soa_match_active_under_faults() {
    let spec = &paper_scenarios()[0];
    let cycles = 1_500;
    let len = RunLength {
        warmup: 500,
        total: cycles,
    };
    let cfg = spec.clone().with_run_length(len).config_at(0.5);
    let algo = spec.build_algorithm();
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
    let build = || -> Engine<'_, dyn RoutingAlgorithm, NullProbe, FaultState> {
        let state = plan
            .compile(&Wiring::from_topology(algo.topology()))
            .expect("fault plan compiles");
        let pattern = TrafficGen::new(cfg.pattern, algo.topology().num_nodes());
        let rate = cfg.injection.mean_rate();
        let mut eng = Engine::with_probe_and_faults(
            algo.as_ref(),
            cfg.buffer_depth,
            cfg.flits_per_packet,
            pattern,
            &move |_| Box::new(Bernoulli::new(rate)) as Box<dyn InjectionProcess>,
            cfg.seed,
            NullProbe,
            state,
        );
        eng.set_injection_limit(cfg.injection_limit);
        eng.set_request_reply(cfg.request_reply);
        eng
    };
    let mut active = build();
    let mut soa = build();
    soa.set_scalar_scan(true);
    let mut wheel = build();
    let mut wheel_sharded = build();
    let mut plan = wheel_sharded.shard_plan(4, 2);
    active.run(cycles);
    soa.run_soa(cycles);
    wheel.run_wheel(cycles);
    wheel_sharded.run_wheel_sharded(cycles, &mut plan);
    assert_eq!(active.counters(), soa.counters(), "faulted soa diverged");
    assert_eq!(
        active.counters(),
        wheel.counters(),
        "faulted wheel diverged"
    );
    assert_eq!(
        active.counters(),
        wheel_sharded.counters(),
        "faulted wheel-sharded diverged"
    );
    assert_eq!(active.packets(), soa.packets());
    assert_eq!(active.packets(), wheel.packets());
    assert_eq!(active.packets(), wheel_sharded.packets());
    let h = active.state_hash();
    assert_eq!(h, soa.state_hash());
    assert_eq!(h, wheel.state_hash());
    assert_eq!(h, wheel_sharded.state_hash());
    assert!(active.counters().dropped_packets + active.counters().unroutable_packets > 0);
}

/// A recording probe observes identical event streams (compared
/// through the JSONL serialization) under every stepper: the sparse
/// steppers visit the same lanes in the same order as the active one,
/// and the wheel reports fast-forwarded cycles nowhere.
#[test]
fn wheel_soa_match_active_event_stream() {
    let spec = &paper_scenarios()[0];
    let cycles = 1_200;
    let len = RunLength {
        warmup: 400,
        total: cycles,
    };
    let cfg = spec.clone().with_run_length(len).config_at(0.5);
    let algo = spec.build_algorithm();
    let build = || -> Engine<'_, dyn RoutingAlgorithm, FlightRecorder> {
        let topo = algo.topology();
        let w = Wiring::from_topology(topo);
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
        let pattern = TrafficGen::new(cfg.pattern, topo.num_nodes());
        let rate = cfg.injection.mean_rate();
        let mut eng = Engine::with_probe(
            algo.as_ref(),
            cfg.buffer_depth,
            cfg.flits_per_packet,
            pattern,
            &move |_| Box::new(Bernoulli::new(rate)) as Box<dyn InjectionProcess>,
            cfg.seed,
            rec,
        );
        eng.set_injection_limit(cfg.injection_limit);
        eng.set_request_reply(cfg.request_reply);
        eng
    };
    let mut active = build();
    let mut soa = build();
    soa.set_scalar_scan(true);
    let mut wheel = build();
    let mut wheel_sharded = build();
    let mut plan = wheel_sharded.shard_plan(4, 2);
    active.run(cycles);
    soa.run_soa(cycles);
    wheel.run_wheel(cycles);
    wheel_sharded.run_wheel_sharded(cycles, &mut plan);
    assert_eq!(active.counters(), soa.counters());
    assert_eq!(active.counters(), wheel.counters());
    assert_eq!(active.counters(), wheel_sharded.counters());
    let active_events = trace::events_jsonl(active.into_probe().events());
    let soa_events = trace::events_jsonl(soa.into_probe().events());
    let wheel_events = trace::events_jsonl(wheel.into_probe().events());
    let wheel_sharded_events = trace::events_jsonl(wheel_sharded.into_probe().events());
    assert!(!active_events.is_empty(), "no events recorded");
    assert_eq!(active_events, soa_events, "soa event stream diverged");
    assert_eq!(active_events, wheel_events, "wheel event stream diverged");
    assert_eq!(
        active_events, wheel_sharded_events,
        "wheel-sharded event stream diverged"
    );
}

/// A Bernoulli burst that goes silent after `remaining` cycles — the
/// simplest way to force a genuine drain tail. The countdown lives in
/// the state word, so wheel mode's resync replays it faithfully (the
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

/// Snapshot mid-drain under the wheel stepper: a finite injection
/// burst ends, the network starts draining under `run_wheel`, and the
/// snapshot is taken while flits are still in flight. Restoring into a
/// fresh engine and finishing both under the wheel must land on the
/// identical final state (the wheel and SoA banks are rebuilt lazily
/// after a restore, so the snapshot never encodes them).
#[test]
fn wheel_snapshot_resume_mid_drain() {
    let spec = &paper_scenarios()[1];
    let algo = spec.build_algorithm();
    let burst = 500u32;
    let build = || {
        let pattern = TrafficGen::new(traffic::Pattern::Uniform, algo.topology().num_nodes());
        Engine::new(
            algo.as_ref(),
            4,
            16,
            pattern,
            &move |_| {
                Box::new(Burst {
                    remaining: burst,
                    rate: 0.02,
                }) as Box<dyn InjectionProcess>
            },
            0xD4A1,
        )
    };
    let mut full = build();
    // Past the end of the burst: injection has ceased for good and the
    // tail of the traffic is still working its way out.
    full.run_wheel(burst + 30);
    let c = full.counters();
    assert!(c.created_packets > 0, "burst created nothing");
    assert!(
        c.in_flight_flits > 0,
        "network already drained — not mid-drain"
    );
    let ident = 0x77EE1;
    let snap = full.snapshot(ident);
    assert_eq!(snap.cycle(), burst + 30);

    let mut resumed = build();
    resumed.restore(&snap, ident).expect("restore mid-drain");
    full.run_wheel(2_000);
    resumed.run_wheel(2_000);
    assert_eq!(
        full.counters(),
        resumed.counters(),
        "resumed counters diverged"
    );
    assert_eq!(
        full.packets(),
        resumed.packets(),
        "resumed packet table diverged"
    );
    assert_eq!(full.state_hash(), resumed.state_hash());
    // The drain actually completed: everything created was delivered,
    // and the wheel fast-forwarded the all-idle suffix without
    // disturbing the cycle count.
    assert_eq!(full.counters().delivered_packets, c.created_packets);
    assert_eq!(full.counters().in_flight_flits, 0);
    assert_eq!(full.cycle(), burst + 30 + 2_000);
}

/// The same mid-drain snapshot/resume contract for the wheel×shards
/// composition: snapshot while the sharded wheel run still has flits
/// in flight, restore into a fresh engine, and finish both runs under
/// `run_wheel_sharded` — bit-identical final state, with the sparse
/// drain tail (only backlogged routers' shards do work) and the idle
/// suffix fast-forward both crossed.
#[test]
fn wheel_sharded_snapshot_resume_mid_drain() {
    let spec = &paper_scenarios()[1];
    let algo = spec.build_algorithm();
    let burst = 500u32;
    let build = || {
        let pattern = TrafficGen::new(traffic::Pattern::Uniform, algo.topology().num_nodes());
        Engine::new(
            algo.as_ref(),
            4,
            16,
            pattern,
            &move |_| {
                Box::new(Burst {
                    remaining: burst,
                    rate: 0.02,
                }) as Box<dyn InjectionProcess>
            },
            0xD4A1,
        )
    };
    let mut full = build();
    let mut full_plan = full.shard_plan(4, 2);
    full.run_wheel_sharded(burst + 30, &mut full_plan);
    let c = full.counters();
    assert!(c.created_packets > 0, "burst created nothing");
    assert!(
        c.in_flight_flits > 0,
        "network already drained — not mid-drain"
    );
    let ident = 0x77EE2;
    let snap = full.snapshot(ident);
    assert_eq!(snap.cycle(), burst + 30);

    let mut resumed = build();
    resumed.restore(&snap, ident).expect("restore mid-drain");
    // Resume under a *different* shard count: the wheel partition is
    // remounted to the plan in use, and the outcome must not care.
    let mut resumed_plan = resumed.shard_plan(2, 1);
    full.run_wheel_sharded(2_000, &mut full_plan);
    resumed.run_wheel_sharded(2_000, &mut resumed_plan);
    assert_eq!(
        full.counters(),
        resumed.counters(),
        "resumed counters diverged"
    );
    assert_eq!(
        full.packets(),
        resumed.packets(),
        "resumed packet table diverged"
    );
    assert_eq!(full.state_hash(), resumed.state_hash());
    assert_eq!(full.counters().delivered_packets, c.created_packets);
    assert_eq!(full.counters().in_flight_flits, 0);
    assert_eq!(full.cycle(), burst + 30 + 2_000);
}

// ---------------------------------------------------------------------
// Property: wheel ≡ active on random configurations.
// ---------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    // Full-simulation properties are expensive: few cases, short runs.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random seed, injection rate, buffer depth, VC count, topology
    /// family and shard count: the wheel, SoA (on both the SIMD and
    /// the scalar scan path) and wheel-sharded steppers must stay
    /// bit-identical to the active stepper on configurations nobody
    /// hand-picked, including the chunk-boundary remounts.
    #[test]
    fn wheel_soa_match_active_on_random_scenarios(
        seed in any::<u64>(),
        rate_milli in 1u32..120,
        buf in 2usize..6,
        vcs in 1usize..5,
        tree_side in any::<bool>(),
        chunk in 37u32..400,
        shards in 2usize..6,
    ) {
        use routing::{CubeDuato, TreeAdaptive};
        use topology::{KAryNCube, KAryNTree};

        let algo: Box<dyn RoutingAlgorithm> = if tree_side {
            Box::new(TreeAdaptive::new(KAryNTree::new(2, 4), vcs))
        } else {
            Box::new(CubeDuato::new(KAryNCube::new(4, 2)))
        };
        let n = algo.topology().num_nodes();
        let rate = rate_milli as f64 / 1000.0;
        let build = || {
            let pattern = TrafficGen::new(traffic::Pattern::Uniform, n);
            Engine::new(
                algo.as_ref(), buf, 8, pattern,
                &move |_| Box::new(Bernoulli::new(rate)) as Box<dyn InjectionProcess>,
                seed,
            )
        };
        let mut active = build();
        let mut soa = build();
        // One engine per scan path: `soa` runs the scalar twins, the
        // wheel engines the wide ops (simd ≡ scalar ≡ active).
        soa.set_scalar_scan(true);
        let mut wheel = build();
        wheel.set_scalar_scan(false);
        let mut wheel_sharded = build();
        wheel_sharded.set_scalar_scan(false);
        let mut plan = wheel_sharded.shard_plan(shards, 1);
        let cycles = 1_200u32;
        let mut done = 0;
        while done < cycles {
            let step = chunk.min(cycles - done);
            active.run(step);
            soa.run_soa(step);
            wheel.run_wheel(step);
            wheel_sharded.run_wheel_sharded(step, &mut plan);
            done += step;
            prop_assert_eq!(active.counters(), soa.counters(), "scalar soa diverged at {}", done);
            prop_assert_eq!(active.counters(), wheel.counters(), "wheel diverged at {}", done);
            prop_assert_eq!(
                active.counters(), wheel_sharded.counters(),
                "wheel-sharded ({} shards) diverged at {}", plan.shards(), done
            );
        }
        prop_assert_eq!(active.packets(), soa.packets());
        prop_assert_eq!(active.packets(), wheel.packets());
        prop_assert_eq!(active.packets(), wheel_sharded.packets());
        let h = active.state_hash();
        prop_assert_eq!(h, soa.state_hash());
        prop_assert_eq!(h, wheel.state_hash());
        prop_assert_eq!(h, wheel_sharded.state_hash());
    }
}
