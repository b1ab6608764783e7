//! Engine benchmark-baseline harness.
//!
//! Runs fixed paper-scale workloads (the five router configurations of
//! the paper on their 256-node networks, uniform traffic) through every
//! engine stepper — the active-set default ([`Engine::run`]), the
//! struct-of-arrays hot path ([`Engine::run_soa`]), the event-wheel
//! stepper ([`Engine::run_wheel`]) and the naive scan-everything
//! reference ([`Engine::run_reference`]) — measuring wall-clock
//! throughput of each: simulated cycles per second and flit-moves per
//! second. All steppers are asserted bit-identical before their numbers
//! are reported, so every comparison is between implementations of the
//! *same* simulation.
//!
//! Measurement discipline: per (configuration, load) point, one untimed
//! warm-up round followed by a fixed number of timed rounds, each round
//! running every stepper once *interleaved* (active, soa, soa with the
//! scalar scan fallback forced, wheel, wheel composed with a 4-shard
//! plan, baseline, traced); the reported time per stepper is the
//! minimum over the timed rounds. Interleaving spreads machine-level slow spells
//! (frequency steps, co-tenant scheduler stalls — multi-second events
//! on small shared boxes) across all steppers instead of letting one
//! absorb a whole spell, and the minimum rejects them outright where a
//! sequential median can still be displaced. See docs/PERFORMANCE.md.
//!
//! Writes `BENCH_engine.json` (override with `--out <path>`): one
//! record per (configuration, offered load) with all stepper rates side
//! by side and their ratios. Low loads are where the active sets and
//! the event wheel pay off (most routers idle); saturation shows the
//! bounded overhead when nearly everything is active.
//!
//! A separate fault-drain-tail section times the regime the event
//! wheel targets: a finite injection burst at load 0.3 on a network
//! with 3% dead links, followed by a long quiet tail in which the
//! active-set stepper still ticks every injection process each cycle
//! while the wheel skips whole idle cycles (active/soa/wheel/
//! wheel-sharded legs, same discipline).
//!
//! A traced leg per point drives the active stepper with a recording
//! [`FlightRecorder`] probe (stride-100 utilization sampling, event log
//! off) and reports `probe_overhead` — the wall-clock cost of live
//! telemetry relative to the default `NullProbe` build.
//!
//! Usage: `bench_engine [--cycles N] [--seed <salt>] [--quick] [--out <path>]`
//!
//! `--quick` shrinks the run (two loads, short cycle count, fewer
//! rounds) for schema smoke-testing; its numbers are *not* comparable
//! to a full run and must never replace the committed baseline.

use netsim::engine::{Counters, Engine};
use netsim::fault::FaultPlan;
use netsim::scenario::{paper_scenarios, SpecVisitor};
use netsim::sim::SimConfig;
use netsim::wiring::Wiring;
use routing::RoutingAlgorithm;
use std::fmt::Write as _;
use std::time::Instant;
use telemetry::{FlightRecorder, Geometry, Probe, TelemetryConfig};
use traffic::{Bernoulli, InjectionProcess, Rng64, TrafficGen};

/// Offered loads (fraction of capacity) per configuration: the 0.1–0.3
/// regime the sparse steppers target, one mid point, and saturation.
const LOADS: [f64; 5] = [0.1, 0.2, 0.3, 0.5, 1.0];

/// `--quick` loads: the two regimes the summary ratios are defined on.
const QUICK_LOADS: [f64; 2] = [0.1, 1.0];

/// Timed rounds per point (after the untimed warm-up round).
const ROUNDS: usize = 5;
const QUICK_ROUNDS: usize = 2;

struct Sample {
    label: String,
    load: f64,
    cycles: u32,
    flit_moves: u64,
    /// Active-set stepper (the default build).
    opt_secs: f64,
    /// Struct-of-arrays stepper (SIMD mask scans, the default build).
    soa_secs: f64,
    /// Struct-of-arrays stepper with the scalar scan fallback forced
    /// at runtime (what the `scalar-scan` feature builds).
    soa_scalar_secs: f64,
    /// Event-wheel stepper.
    wheel_secs: f64,
    /// Event-wheel stepper composed with a 4-shard plan.
    wheel_sharded_secs: f64,
    /// Naive full-scan reference stepper (dynamic dispatch).
    ref_secs: f64,
    /// Active stepper with a recording probe attached.
    traced_secs: f64,
}

impl Sample {
    fn opt_cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.opt_secs
    }
    fn ref_cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.ref_secs
    }
    fn opt_moves_per_sec(&self) -> f64 {
        self.flit_moves as f64 / self.opt_secs
    }
    fn ref_moves_per_sec(&self) -> f64 {
        self.flit_moves as f64 / self.ref_secs
    }
    fn soa_cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.soa_secs
    }
    fn wheel_cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wheel_secs
    }
    fn traced_cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.traced_secs
    }
    /// Active-set stepper vs the naive reference (the historical ratio).
    fn speedup(&self) -> f64 {
        self.ref_secs / self.opt_secs
    }
    /// SoA stepper vs the active-set stepper.
    fn soa_speedup(&self) -> f64 {
        self.opt_secs / self.soa_secs
    }
    /// Event-wheel stepper vs the active-set stepper.
    fn wheel_speedup(&self) -> f64 {
        self.opt_secs / self.wheel_secs
    }
    /// SIMD mask scans vs the forced scalar fallback (both SoA).
    fn simd_speedup(&self) -> f64 {
        self.soa_scalar_secs / self.soa_secs
    }
    /// Wheel×shards composition vs the active-set stepper.
    fn wheel_sharded_speedup(&self) -> f64 {
        self.opt_secs / self.wheel_sharded_secs
    }
    /// Relative wall-clock cost of the recording probe vs `NullProbe`.
    ///
    /// Floored at zero: both legs are min-of-N samples of the same
    /// work plus probe cost, so a negative difference is measurement
    /// noise (the traced leg drew the luckier minimum), not a real
    /// speedup — reporting it as one misleads downstream gates.
    fn probe_overhead(&self) -> f64 {
        (self.traced_secs / self.opt_secs - 1.0).max(0.0)
    }
}

fn build_engine<'a, A: RoutingAlgorithm + ?Sized>(algo: &'a A, cfg: &SimConfig) -> Engine<'a, A> {
    build_engine_probed(algo, cfg, telemetry::NullProbe)
}

fn build_engine_probed<'a, A: RoutingAlgorithm + ?Sized, P: Probe>(
    algo: &'a A,
    cfg: &SimConfig,
    probe: P,
) -> Engine<'a, A, P> {
    let pattern = TrafficGen::new(cfg.pattern, algo.topology().num_nodes());
    let rate = cfg.injection.mean_rate();
    let mut eng = Engine::with_probe(
        algo,
        cfg.buffer_depth,
        cfg.flits_per_packet,
        pattern,
        &move |_| Box::new(Bernoulli::new(rate)) as Box<dyn InjectionProcess>,
        cfg.seed,
        probe,
    );
    eng.set_injection_limit(cfg.injection_limit);
    eng.set_request_reply(cfg.request_reply);
    eng
}

/// The recording probe the traced timing uses: utilization sampling on,
/// event log off (a paper-length run would hold millions of events).
fn recorder_for<A: RoutingAlgorithm + ?Sized>(algo: &A) -> FlightRecorder {
    let w = Wiring::from_topology(algo.topology());
    FlightRecorder::new(
        TelemetryConfig {
            stride: 100,
            record_events: false,
        },
        Geometry {
            routers: w.num_routers,
            ports: w.ports,
            vcs: algo.num_vcs(),
            nodes: w.num_nodes,
        },
    )
}

/// All seven timed legs of one (configuration, load) point.
struct PointTiming {
    opt_secs: f64,
    soa_secs: f64,
    soa_scalar_secs: f64,
    wheel_secs: f64,
    wheel_sharded_secs: f64,
    ref_secs: f64,
    traced_secs: f64,
    counters: Counters,
}

/// Times every stepper on the concrete algorithm type (the
/// configuration `Scenario::simulate` ships), interleaved per round, minimum
/// over the timed rounds. The reference leg runs behind dynamic
/// dispatch — the pre-optimization configuration it represents.
struct TimePoint<'c> {
    cfg: &'c SimConfig,
    cycles: u32,
    rounds: usize,
}

impl SpecVisitor for TimePoint<'_> {
    type Out = PointTiming;
    fn visit<A: RoutingAlgorithm>(self, algo: A) -> PointTiming {
        let (cfg, cycles) = (self.cfg, self.cycles);
        let dyn_algo: &dyn RoutingAlgorithm = &algo;
        let mut secs = [f64::INFINITY; 7];
        let mut counters: Option<Counters> = None;
        // Round 0 is the untimed warm-up: page faults, allocator growth
        // and frequency ramp-up land there, not in a timed round.
        for round in 0..=self.rounds {
            for (leg, best) in secs.iter_mut().enumerate() {
                let (s, c) = match leg {
                    0 => {
                        let mut eng = build_engine(&algo, cfg);
                        let start = Instant::now();
                        eng.run(cycles);
                        (start.elapsed().as_secs_f64(), eng.counters())
                    }
                    1 => {
                        let mut eng = build_engine(&algo, cfg);
                        let start = Instant::now();
                        eng.run_soa(cycles);
                        (start.elapsed().as_secs_f64(), eng.counters())
                    }
                    2 => {
                        let mut eng = build_engine(&algo, cfg);
                        eng.set_scalar_scan(true);
                        let start = Instant::now();
                        eng.run_soa(cycles);
                        (start.elapsed().as_secs_f64(), eng.counters())
                    }
                    3 => {
                        let mut eng = build_engine(&algo, cfg);
                        let start = Instant::now();
                        eng.run_wheel(cycles);
                        (start.elapsed().as_secs_f64(), eng.counters())
                    }
                    4 => {
                        let mut eng = build_engine(&algo, cfg);
                        let mut plan = eng.shard_plan(4, 2);
                        let start = Instant::now();
                        eng.run_wheel_sharded(cycles, &mut plan);
                        (start.elapsed().as_secs_f64(), eng.counters())
                    }
                    5 => {
                        let mut eng = build_engine(dyn_algo, cfg);
                        let start = Instant::now();
                        eng.run_reference(cycles);
                        (start.elapsed().as_secs_f64(), eng.counters())
                    }
                    _ => {
                        let mut eng = build_engine_probed(&algo, cfg, recorder_for(&algo));
                        let start = Instant::now();
                        eng.run(cycles);
                        (start.elapsed().as_secs_f64(), eng.counters())
                    }
                };
                // Every leg of every round must agree on the counters,
                // or the comparison is void.
                match counters {
                    None => counters = Some(c),
                    Some(c0) => assert_eq!(c0, c, "steppers diverged — benchmark void"),
                }
                if round > 0 {
                    *best = best.min(s);
                }
            }
        }
        PointTiming {
            opt_secs: secs[0],
            soa_secs: secs[1],
            soa_scalar_secs: secs[2],
            wheel_secs: secs[3],
            wheel_sharded_secs: secs[4],
            ref_secs: secs[5],
            traced_secs: secs[6],
            counters: counters.expect("at least one round ran"),
        }
    }
}

/// A finite Bernoulli burst: inject at `rate` for the first
/// `remaining` cycles, then go permanently quiet. Implements the
/// state-word round-trip the event wheel requires of custom processes
/// (`remaining` is the whole hidden state).
struct Burst {
    remaining: u32,
    rate: f64,
}

impl InjectionProcess for Burst {
    fn tick(&mut self, rng: &mut Rng64) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        rng.chance(self.rate)
    }
    fn mean_rate(&self) -> f64 {
        0.0
    }
    fn state_word(&self) -> u64 {
        u64::from(self.remaining)
    }
    fn restore_state_word(&mut self, w: u64) {
        self.remaining = w as u32;
    }
}

/// The four timed legs of one drain-tail point.
struct DrainTiming {
    opt_secs: f64,
    soa_secs: f64,
    wheel_secs: f64,
    wheel_sharded_secs: f64,
    counters: Counters,
}

/// Times the fault-drain-tail workload: a finite injection burst on a
/// faulted network, then a long quiet tail in which the active-set
/// stepper still ticks every node's injection process each cycle while
/// the event wheel skips whole idle cycles. Same interleaved min-of-N
/// discipline as [`TimePoint`]; active/soa/wheel/wheel-sharded legs.
struct TimeDrain<'c> {
    cfg: &'c SimConfig,
    burst: u32,
    cycles: u32,
    rounds: usize,
}

impl SpecVisitor for TimeDrain<'_> {
    type Out = DrainTiming;
    fn visit<A: RoutingAlgorithm>(self, algo: A) -> DrainTiming {
        let cfg = self.cfg;
        let w = Wiring::from_topology(algo.topology());
        let faults = FaultPlan {
            link_fraction: 0.03,
            ..FaultPlan::default()
        }
        .compile(&w)
        .expect("drain fault plan compiles");
        let rate = cfg.injection.mean_rate();
        let burst = self.burst;
        let make_proc = move |_: usize| {
            Box::new(Burst {
                remaining: burst,
                rate,
            }) as Box<dyn InjectionProcess>
        };
        let mut secs = [f64::INFINITY; 4];
        let mut counters: Option<Counters> = None;
        for round in 0..=self.rounds {
            for (leg, best) in secs.iter_mut().enumerate() {
                let pattern = TrafficGen::new(cfg.pattern, algo.topology().num_nodes());
                let mut eng = Engine::with_probe_and_faults(
                    &algo,
                    cfg.buffer_depth,
                    cfg.flits_per_packet,
                    pattern,
                    &make_proc,
                    cfg.seed,
                    telemetry::NullProbe,
                    faults.clone(),
                );
                eng.set_injection_limit(cfg.injection_limit);
                eng.set_request_reply(cfg.request_reply);
                let mut plan = (leg == 3).then(|| eng.shard_plan(4, 2));
                let start = Instant::now();
                match leg {
                    0 => eng.run(self.cycles),
                    1 => eng.run_soa(self.cycles),
                    2 => eng.run_wheel(self.cycles),
                    _ => eng.run_wheel_sharded(self.cycles, plan.as_mut().expect("plan built")),
                }
                let s = start.elapsed().as_secs_f64();
                let c = eng.counters();
                match counters {
                    None => counters = Some(c),
                    Some(c0) => assert_eq!(c0, c, "steppers diverged — benchmark void"),
                }
                if round > 0 {
                    *best = best.min(s);
                }
            }
        }
        DrainTiming {
            opt_secs: secs[0],
            soa_secs: secs[1],
            wheel_secs: secs[2],
            wheel_sharded_secs: secs[3],
            counters: counters.expect("at least one round ran"),
        }
    }
}

/// One drain-tail record: burst length, total run, and the three
/// stepper timings.
struct DrainSample {
    label: String,
    burst: u32,
    cycles: u32,
    flit_moves: u64,
    dropped: u64,
    opt_secs: f64,
    soa_secs: f64,
    wheel_secs: f64,
    wheel_sharded_secs: f64,
}

impl DrainSample {
    fn soa_speedup(&self) -> f64 {
        self.opt_secs / self.soa_secs
    }
    fn wheel_speedup(&self) -> f64 {
        self.opt_secs / self.wheel_secs
    }
    fn wheel_sharded_speedup(&self) -> f64 {
        self.opt_secs / self.wheel_sharded_secs
    }
}

fn main() {
    let mut cycles: Option<u32> = None;
    let mut out = std::path::PathBuf::from("BENCH_engine.json");
    let mut seed_salt: u64 = 0;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cycles" => {
                cycles = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("missing/invalid count after --cycles")),
                );
            }
            "--out" => {
                out = args
                    .next()
                    .unwrap_or_else(|| usage("missing path after --out"))
                    .into();
            }
            "--seed" => {
                seed_salt = args
                    .next()
                    .as_deref()
                    .and_then(bench::parse_seed)
                    .unwrap_or_else(|| usage("missing/invalid value after --seed"));
            }
            "--quick" => quick = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    // The paper's full run length, unless --quick or --cycles says
    // otherwise (an explicit --cycles wins over --quick's short run).
    let cycles = cycles.unwrap_or(if quick { 2_000 } else { 20_000 });
    let loads: &[f64] = if quick { &QUICK_LOADS } else { &LOADS };
    let rounds = if quick { QUICK_ROUNDS } else { ROUNDS };

    let mut samples = Vec::new();
    for spec in paper_scenarios() {
        for &load in loads {
            let mut cfg = spec.config_at(load);
            cfg.seed ^= seed_salt;
            let t = spec.with_algorithm(TimePoint {
                cfg: &cfg,
                cycles,
                rounds,
            });
            let s = Sample {
                label: spec.label().to_string(),
                load,
                cycles,
                flit_moves: t.counters.flit_moves,
                opt_secs: t.opt_secs,
                soa_secs: t.soa_secs,
                soa_scalar_secs: t.soa_scalar_secs,
                wheel_secs: t.wheel_secs,
                wheel_sharded_secs: t.wheel_sharded_secs,
                ref_secs: t.ref_secs,
                traced_secs: t.traced_secs,
            };
            eprintln!(
                "{:22} load {:4.2}: {:>6.2} Mcycles/s | soa {:4.2}x (simd {:4.2}x) \
                 wheel {:4.2}x wheel+4sh {:4.2}x | {:4.2}x vs naive, {:>7.2} Mmoves/s, \
                 probe {:+5.1}%",
                s.label,
                s.load,
                s.opt_cycles_per_sec() / 1e6,
                s.soa_speedup(),
                s.simd_speedup(),
                s.wheel_speedup(),
                s.wheel_sharded_speedup(),
                s.speedup(),
                s.opt_moves_per_sec() / 1e6,
                s.probe_overhead() * 100.0,
            );
            samples.push(s);
        }
    }

    // Fault-drain-tail points: a finite burst at load 0.3 on a network
    // with 3% dead links, then a quiet tail. The tail is where the
    // event wheel's idle-cycle skipping dominates: the active-set
    // stepper still ticks every node's injection process each cycle.
    let (drain_burst, drain_cycles) = if quick { (300, 2_000) } else { (2_000, 20_000) };
    let mut drains = Vec::new();
    for spec in paper_scenarios() {
        let mut cfg = spec.config_at(0.3);
        cfg.seed ^= seed_salt;
        let t = spec.with_algorithm(TimeDrain {
            cfg: &cfg,
            burst: drain_burst,
            cycles: drain_cycles,
            rounds,
        });
        let d = DrainSample {
            label: spec.label().to_string(),
            burst: drain_burst,
            cycles: drain_cycles,
            flit_moves: t.counters.flit_moves,
            dropped: t.counters.dropped_packets,
            opt_secs: t.opt_secs,
            soa_secs: t.soa_secs,
            wheel_secs: t.wheel_secs,
            wheel_sharded_secs: t.wheel_sharded_secs,
        };
        eprintln!(
            "{:22} drain tail : {:>6.2} Mcycles/s | soa {:4.2}x wheel {:4.2}x \
             wheel+4sh {:4.2}x | {} dropped",
            d.label,
            d.cycles as f64 / d.opt_secs / 1e6,
            d.soa_speedup(),
            d.wheel_speedup(),
            d.wheel_sharded_speedup(),
            d.dropped,
        );
        drains.push(d);
    }

    let mean = |f: &dyn Fn(&&Sample) -> f64, pred: &dyn Fn(&&Sample) -> bool| -> f64 {
        let picked: Vec<&Sample> = samples.iter().filter(pred).collect();
        picked.iter().map(f).sum::<f64>() / picked.len() as f64
    };
    let low_speedup = mean(&|s| s.speedup(), &|s| s.load <= 0.3);
    let mean_probe = mean(&|s| s.probe_overhead(), &|_| true);
    // The summary ratios the acceptance gates read: sparse-stepper gain
    // where it is claimed (load 0.1) and the bounded cost where it is
    // not (saturation).
    let wheel_low = mean(&|s| s.wheel_speedup(), &|s| s.load == 0.1);
    let wheel_sat = mean(&|s| s.wheel_speedup(), &|s| s.load == 1.0);
    let soa_low = mean(&|s| s.soa_speedup(), &|s| s.load == 0.1);
    let soa_sat = mean(&|s| s.soa_speedup(), &|s| s.load == 1.0);
    let simd_low = mean(&|s| s.simd_speedup(), &|s| s.load == 0.1);
    let simd_sat = mean(&|s| s.simd_speedup(), &|s| s.load == 1.0);
    let wheel_sharded_low = mean(&|s| s.wheel_sharded_speedup(), &|s| s.load == 0.1);
    let wheel_sharded_sat = mean(&|s| s.wheel_sharded_speedup(), &|s| s.load == 1.0);
    let wheel_drain =
        drains.iter().map(DrainSample::wheel_speedup).sum::<f64>() / drains.len() as f64;
    let soa_drain = drains.iter().map(DrainSample::soa_speedup).sum::<f64>() / drains.len() as f64;
    let wheel_sharded_drain = drains
        .iter()
        .map(DrainSample::wheel_sharded_speedup)
        .sum::<f64>()
        / drains.len() as f64;
    eprintln!("mean active-vs-naive speedup over low-load (<=0.3) points: {low_speedup:.2}x");
    eprintln!(
        "wheel vs active: {wheel_low:.2}x at load 0.1, {wheel_sat:.2}x at saturation, \
         {wheel_drain:.2}x on fault-drain tails"
    );
    eprintln!(
        "soa   vs active: {soa_low:.2}x at load 0.1, {soa_sat:.2}x at saturation, \
         {soa_drain:.2}x on fault-drain tails"
    );
    eprintln!(
        "simd vs scalar scans (soa): {simd_low:.2}x at load 0.1, {simd_sat:.2}x at saturation"
    );
    eprintln!(
        "wheel+4shards vs active: {wheel_sharded_low:.2}x at load 0.1, \
         {wheel_sharded_sat:.2}x at saturation, {wheel_sharded_drain:.2}x on fault-drain tails"
    );
    eprintln!("mean recording-probe overhead: {:+.1}%", mean_probe * 100.0);

    let summary = Summary {
        low_speedup,
        mean_probe,
        wheel_low,
        wheel_sat,
        wheel_drain,
        soa_low,
        soa_sat,
        soa_drain,
        simd_low,
        simd_sat,
        wheel_sharded_low,
        wheel_sharded_sat,
        wheel_sharded_drain,
        seed_salt,
        quick,
    };
    std::fs::write(&out, to_json(&samples, &drains, &summary)).expect("write benchmark json");
    eprintln!("wrote {}", out.display());
}

struct Summary {
    low_speedup: f64,
    mean_probe: f64,
    wheel_low: f64,
    wheel_sat: f64,
    wheel_drain: f64,
    soa_low: f64,
    soa_sat: f64,
    soa_drain: f64,
    simd_low: f64,
    simd_sat: f64,
    wheel_sharded_low: f64,
    wheel_sharded_sat: f64,
    wheel_sharded_drain: f64,
    seed_salt: u64,
    quick: bool,
}

fn to_json(samples: &[Sample], drains: &[DrainSample], sum: &Summary) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"benchmark\": \"engine steppers (active-set, soa, wheel) vs naive full-scan baseline\",\n");
    j.push_str("  \"workload\": \"paper-scale (256-node) configurations, uniform traffic\",\n");
    j.push_str("  \"units\": { \"rates\": \"per wall-clock second\" },\n");
    j.push_str(
        "  \"probe\": \"traced = FlightRecorder (stride-100 utilization, events off); \
         all other legs run the default NullProbe build\",\n",
    );
    j.push_str(
        "  \"protocol\": \"per (config, load): one untimed interleaved warm-up round, then \
         timed rounds cycling active -> soa -> soa-scalar -> wheel -> wheel-sharded(4) -> \
         baseline -> traced; reported time is the per-leg minimum over the timed rounds \
         (interleaving + min reject machine-level slow spells that displace a sequential \
         median); probe_overhead is floored at 0 (a negative min-of-N difference is noise, \
         not a speedup)\",\n",
    );
    let _ = writeln!(j, "  \"quick\": {},", sum.quick);
    let _ = writeln!(j, "  \"seed_salt\": \"0x{:016x}\",", sum.seed_salt);
    let _ = writeln!(j, "  \"mean_low_load_speedup\": {:.3},", sum.low_speedup);
    let _ = writeln!(j, "  \"mean_probe_overhead\": {:.4},", sum.mean_probe);
    let _ = writeln!(j, "  \"wheel_low_load_speedup\": {:.3},", sum.wheel_low);
    let _ = writeln!(j, "  \"wheel_saturation_speedup\": {:.3},", sum.wheel_sat);
    let _ = writeln!(j, "  \"wheel_drain_tail_speedup\": {:.3},", sum.wheel_drain);
    let _ = writeln!(j, "  \"soa_low_load_speedup\": {:.3},", sum.soa_low);
    let _ = writeln!(j, "  \"soa_saturation_speedup\": {:.3},", sum.soa_sat);
    let _ = writeln!(j, "  \"soa_drain_tail_speedup\": {:.3},", sum.soa_drain);
    let _ = writeln!(j, "  \"simd_scan_low_load_speedup\": {:.3},", sum.simd_low);
    let _ = writeln!(
        j,
        "  \"simd_scan_saturation_speedup\": {:.3},",
        sum.simd_sat
    );
    let _ = writeln!(
        j,
        "  \"wheel_sharded_low_load_speedup\": {:.3},",
        sum.wheel_sharded_low
    );
    let _ = writeln!(
        j,
        "  \"wheel_sharded_saturation_speedup\": {:.3},",
        sum.wheel_sharded_sat
    );
    let _ = writeln!(
        j,
        "  \"wheel_sharded_drain_tail_speedup\": {:.3},",
        sum.wheel_sharded_drain
    );
    j.push_str("  \"runs\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            j,
            "    {{ \"config\": {:?}, \"offered_load\": {}, \"cycles\": {}, \
             \"flit_moves\": {}, \
             \"optimized\": {{ \"seconds\": {:.6}, \"cycles_per_sec\": {:.0}, \"flit_moves_per_sec\": {:.0} }}, \
             \"soa\": {{ \"seconds\": {:.6}, \"cycles_per_sec\": {:.0}, \"speedup_vs_active\": {:.3} }}, \
             \"soa_scalar\": {{ \"seconds\": {:.6}, \"simd_speedup\": {:.3} }}, \
             \"wheel\": {{ \"seconds\": {:.6}, \"cycles_per_sec\": {:.0}, \"speedup_vs_active\": {:.3} }}, \
             \"wheel_sharded\": {{ \"seconds\": {:.6}, \"shards\": 4, \"speedup_vs_active\": {:.3} }}, \
             \"baseline\": {{ \"seconds\": {:.6}, \"cycles_per_sec\": {:.0}, \"flit_moves_per_sec\": {:.0} }}, \
             \"traced\": {{ \"seconds\": {:.6}, \"cycles_per_sec\": {:.0} }}, \
             \"speedup\": {:.3}, \"probe_overhead\": {:.4} }}",
            s.label,
            s.load,
            s.cycles,
            s.flit_moves,
            s.opt_secs,
            s.opt_cycles_per_sec(),
            s.opt_moves_per_sec(),
            s.soa_secs,
            s.soa_cycles_per_sec(),
            s.soa_speedup(),
            s.soa_scalar_secs,
            s.simd_speedup(),
            s.wheel_secs,
            s.wheel_cycles_per_sec(),
            s.wheel_speedup(),
            s.wheel_sharded_secs,
            s.wheel_sharded_speedup(),
            s.ref_secs,
            s.ref_cycles_per_sec(),
            s.ref_moves_per_sec(),
            s.traced_secs,
            s.traced_cycles_per_sec(),
            s.speedup(),
            s.probe_overhead(),
        );
        j.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ],\n");
    j.push_str(
        "  \"drain_tail\": { \"workload\": \"finite uniform burst at load 0.3 on a network \
         with 3% dead links (default fault seed), then a quiet drain-and-idle tail; same \
         interleaved min-of-N protocol, active/soa/wheel/wheel-sharded legs\",\n    \"runs\": [\n",
    );
    for (i, d) in drains.iter().enumerate() {
        let _ = write!(
            j,
            "      {{ \"config\": {:?}, \"burst_cycles\": {}, \"cycles\": {}, \
             \"flit_moves\": {}, \"dropped_packets\": {}, \
             \"active\": {{ \"seconds\": {:.6}, \"cycles_per_sec\": {:.0} }}, \
             \"soa\": {{ \"seconds\": {:.6}, \"speedup_vs_active\": {:.3} }}, \
             \"wheel\": {{ \"seconds\": {:.6}, \"speedup_vs_active\": {:.3} }}, \
             \"wheel_sharded\": {{ \"seconds\": {:.6}, \"shards\": 4, \"speedup_vs_active\": {:.3} }} }}",
            d.label,
            d.burst,
            d.cycles,
            d.flit_moves,
            d.dropped,
            d.opt_secs,
            d.cycles as f64 / d.opt_secs,
            d.soa_secs,
            d.soa_speedup(),
            d.wheel_secs,
            d.wheel_speedup(),
            d.wheel_sharded_secs,
            d.wheel_sharded_speedup(),
        );
        j.push_str(if i + 1 < drains.len() { ",\n" } else { "\n" });
    }
    j.push_str("    ]\n  }\n}\n");
    j
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: bench_engine [--cycles N] [--seed <salt>] [--quick] [--out <path>]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
