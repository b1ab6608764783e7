//! Validating the paper's measurement protocol itself: is 2000 cycles
//! of warm-up enough for steady state, and how tight are the resulting
//! estimates?

use netperf::netsim::sim::run_simulation;
use netperf::prelude::*;
use netperf::traffic::Pattern as P;

#[test]
fn accepted_bandwidth_ci_is_tight_below_saturation() {
    // Below saturation the accepted bandwidth is a stable rate: the
    // batch-means 95% interval should be within a few percent and must
    // cover the generated rate.
    let spec = named("cube-duato").unwrap();
    let cfg = spec.config_at(0.5);
    let algo = spec.build_algorithm();
    let out = run_simulation(algo.as_ref(), &cfg);
    let ci = out.accepted_ci;
    assert!(
        ci.relative() < 0.05,
        "relative half-width {}",
        ci.relative()
    );
    assert!(
        ci.contains(out.accepted_flits_per_node_cycle),
        "point estimate outside its own interval?!"
    );
    let generated_rate = out.generated_fraction * cfg.capacity_flits_per_cycle;
    assert!(
        (ci.mean - generated_rate).abs() < 3.0 * ci.half_width + 0.01,
        "accepted {} vs generated {}",
        ci.mean,
        generated_rate
    );
}

#[test]
fn ci_stays_finite_and_wider_above_saturation() {
    let spec = named("tree-1vc").unwrap();
    let algo = spec.build_algorithm();
    let below = run_simulation(algo.as_ref(), &spec.config_at(0.2));
    let above = run_simulation(algo.as_ref(), &spec.config_at(0.9));
    assert!(below.accepted_ci.half_width.is_finite());
    assert!(above.accepted_ci.half_width.is_finite());
    // Saturated throughput is still a stable rate (Section 6's "stable
    // post-saturation behavior") — the interval must stay tight.
    assert!(
        above.accepted_ci.relative() < 0.08,
        "{}",
        above.accepted_ci.relative()
    );
}

#[test]
fn warmup_of_2000_cycles_reaches_steady_state() {
    // Measure accepted bandwidth in 2000-cycle slices with *no* warm-up
    // exclusion: the first slice is depressed (network filling), but
    // from the second slice on the rate is statistically flat — which
    // is exactly why the paper starts measuring at cycle 2000.
    use netperf::netsim::engine::Engine;
    use netperf::traffic::{Bernoulli, TrafficGen};

    let spec = named("cube-duato").unwrap();
    let norm = spec.normalization();
    let algo = spec.build_algorithm();
    let rate = norm.packet_rate(0.6);
    let pattern = TrafficGen::new(P::Uniform, 256);
    let mut eng = Engine::new(
        algo.as_ref(),
        4,
        norm.flits_per_packet() as u16,
        pattern,
        &move |_| Box::new(Bernoulli::new(rate)),
        42,
    );

    // Fine slices over the first 2000 cycles, then coarse steady slices.
    let mut fine = Vec::new();
    let mut prev = 0u64;
    for _ in 0..10 {
        eng.run(200);
        let now = eng.counters().delivered_flits;
        fine.push((now - prev) as f64 / (200.0 * 256.0));
        prev = now;
    }
    let mut coarse = Vec::new();
    for _ in 0..9 {
        eng.run(2_000);
        let now = eng.counters().delivered_flits;
        coarse.push((now - prev) as f64 / (2_000.0 * 256.0));
        prev = now;
    }

    let steady: f64 = coarse.iter().sum::<f64>() / coarse.len() as f64;
    // The very first 200 cycles are dominated by pipeline fill: nothing
    // is delivered before ~45 cycles and the rate ramps after that.
    assert!(
        fine[0] < 0.9 * steady,
        "first 200-cycle slice {} vs steady {steady}",
        fine[0]
    );
    // By the end of the 2000-cycle warm-up the rate has converged...
    assert!(
        (fine[9] - steady).abs() < 0.10 * steady,
        "slice at warm-up end {} vs steady {steady}",
        fine[9]
    );
    // ...and every post-warm-up 2000-cycle slice is within 5%.
    for (i, &s) in coarse.iter().enumerate() {
        assert!(
            (s - steady).abs() < 0.05 * steady,
            "slice {} = {s} vs steady {steady}",
            i + 1
        );
    }
}

#[test]
fn batch_means_autocorrelation_is_low_in_steady_state() {
    // Sanity on the independence assumption behind the intervals.
    use netstats::BatchMeans;
    let spec = named("cube-det").unwrap();
    let cfg = spec.config_at(0.4);
    let algo = spec.build_algorithm();
    // Reconstruct slice rates from two runs at different batch sizes
    // via the public outcome (the CI machinery is already exercised);
    // here we just re-derive with BatchMeans on per-run accepted rates
    // across seeds.
    let mut bm = BatchMeans::new();
    for seed in 0..8u64 {
        let mut c = cfg;
        c.seed = 1000 + seed;
        let out = run_simulation(algo.as_ref(), &c);
        bm.push(out.accepted_flits_per_node_cycle);
    }
    let ci = bm.ci95();
    assert!(ci.relative() < 0.03, "cross-seed spread {}", ci.relative());
    assert!(bm.lag1_autocorrelation().abs() < 0.9);
}
