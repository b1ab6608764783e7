//! Criterion benchmarks of the simulation engine itself: how fast does
//! the flit-level model execute? These guard against performance
//! regressions that would make the figure regeneration impractically
//! slow, and quantify the cost of the design choices (virtual-channel
//! count, buffer depth, adaptivity).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsim::scenario::{named, paper_scenarios, Scenario};
use netsim::sim::run_simulation;

/// Cycles per measured run (short: criterion repeats many times).
const CYCLES: u32 = 1_500;

fn bench_config(c: &mut Criterion, group_name: &str, spec: &Scenario, load: f64) {
    let mut group = c.benchmark_group(group_name);
    group.throughput(Throughput::Elements(CYCLES as u64));
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter(spec.label()), |b| {
        let algo = spec.build_algorithm();
        let mut cfg = spec.config_at(load);
        cfg.warmup_cycles = CYCLES / 3;
        cfg.total_cycles = CYCLES;
        b.iter(|| run_simulation(algo.as_ref(), &cfg));
    });
    group.finish();
}

fn paper_networks(c: &mut Criterion) {
    for spec in paper_scenarios() {
        bench_config(c, "paper_network_cycles", &spec, 0.5);
    }
}

fn load_scaling(c: &mut Criterion) {
    let spec = named("cube-duato").unwrap();
    let mut group = c.benchmark_group("load_scaling_duato");
    group.sample_size(10);
    for load in [0.1, 0.5, 0.9] {
        group.bench_function(BenchmarkId::from_parameter(format!("{load}")), |b| {
            let algo = spec.build_algorithm();
            let mut cfg = spec.config_at(load);
            cfg.warmup_cycles = CYCLES / 3;
            cfg.total_cycles = CYCLES;
            b.iter(|| run_simulation(algo.as_ref(), &cfg));
        });
    }
    group.finish();
}

fn small_networks(c: &mut Criterion) {
    bench_config(
        c,
        "tiny_network_cycles",
        &named("cube-duato-tiny").unwrap(),
        0.5,
    );
    bench_config(
        c,
        "tiny_network_cycles",
        &named("tree-2vc-tiny").unwrap(),
        0.5,
    );
}

criterion_group!(benches, paper_networks, load_scaling, small_networks);
criterion_main!(benches);
