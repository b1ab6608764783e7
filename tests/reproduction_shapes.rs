//! The paper's *qualitative* results, asserted end-to-end on the real
//! 256-node networks with shortened (but still converged) runs. These
//! are the claims the reproduction must preserve; the exact percentage
//! points live in EXPERIMENTS.md and come from full-length runs.
//!
//! Run-length note: 8000 cycles with a 2000-cycle warm-up is enough for
//! every assertion here to be stable across seeds (the full protocol
//! uses 20000 cycles and tightens the numbers but not the orderings).

use netperf::prelude::*;
use netperf::traffic::Pattern as P;

fn len() -> RunLength {
    RunLength {
        warmup: 2_000,
        total: 8_000,
    }
}

fn accepted(spec: &Scenario, pattern: P, load: f64) -> f64 {
    spec.with_pairs(&[("pattern", pattern.spec())])
        .unwrap()
        .with_run_length(len())
        .try_simulate(load)
        .unwrap()
        .accepted_fraction
}

#[test]
fn tree_uniform_vc_ordering() {
    // Section 8: saturation 36% (1 vc), 55% (2 vc), 72% (4 vc); "with 4
    // virtual channels doubles the accepted bandwidth".
    let t1 = named("tree-1vc").unwrap();
    let t2 = named("tree-2vc").unwrap();
    let t4 = named("tree-4vc").unwrap();
    let (a1, a2, a4) = (
        accepted(&t1, P::Uniform, 0.95),
        accepted(&t2, P::Uniform, 0.95),
        accepted(&t4, P::Uniform, 0.95),
    );
    assert!(a1 < a2 && a2 < a4, "VC ordering violated: {a1} {a2} {a4}");
    assert!(a4 > 1.8 * a1, "4 VCs should ~double 1 VC: {a1} -> {a4}");
    assert!(
        (0.25..0.45).contains(&a1),
        "1 vc sustained {a1}, paper ~0.36"
    );
    assert!(
        (0.60..0.80).contains(&a4),
        "4 vc sustained {a4}, paper ~0.72"
    );
}

#[test]
fn tree_complement_is_congestion_free_and_insensitive_to_vcs() {
    // Section 8: complement saturates around 95% for every flow-control
    // variant, and extra VCs only add latency at moderate load.
    for vcs in [1usize, 2, 4] {
        let spec = named(&format!("tree-{vcs}vc")).unwrap();
        let out = spec
            .with_pairs(&[("pattern", "complement")])
            .unwrap()
            .with_run_length(len())
            .try_simulate(0.9)
            .unwrap();
        assert!(
            out.accepted_fraction > 0.80,
            "{vcs} vc accepted only {} under complement",
            out.accepted_fraction
        );
    }
    // Latency at moderate load: 1 vc is the fastest (no link
    // multiplexing of the worms).
    let lat = |vcs| {
        named(&format!("tree-{vcs}vc"))
            .unwrap()
            .with_pairs(&[("pattern", "complement")])
            .unwrap()
            .with_run_length(len())
            .try_simulate(0.5)
            .unwrap()
            .mean_latency_cycles()
    };
    let (l1, l4) = (lat(1), lat(4));
    assert!(
        l1 < l4,
        "1 vc ({l1}) should beat 4 vc ({l4}) on complement latency"
    );
}

#[test]
fn tree_transpose_and_bitrev_track_flow_control() {
    // Section 8: saturation 33% / 60% / 78% for transpose; bit reversal
    // analogous ("performance results of these communication patterns
    // are very similar").
    for pattern in [P::Transpose, P::BitReversal] {
        let a1 = accepted(&named("tree-1vc").unwrap(), pattern, 0.95);
        let a4 = accepted(&named("tree-4vc").unwrap(), pattern, 0.95);
        assert!((0.25..0.48).contains(&a1), "{}: 1 vc {a1}", pattern.name());
        assert!((0.60..0.85).contains(&a4), "{}: 4 vc {a4}", pattern.name());
        assert!(a4 > 1.7 * a1, "{}: {a1} -> {a4}", pattern.name());
    }
    // "Very similar": transpose and bit reversal within a few points.
    let t = accepted(&named("tree-2vc").unwrap(), P::Transpose, 0.95);
    let b = accepted(&named("tree-2vc").unwrap(), P::BitReversal, 0.95);
    assert!((t - b).abs() < 0.08, "transpose {t} vs bitrev {b}");
}

#[test]
fn cube_uniform_adaptive_beats_deterministic() {
    // Section 9: Duato saturates ~80%, deterministic ~60%; latency low
    // for both before saturation.
    let det = named("cube-det").unwrap();
    let duato = named("cube-duato").unwrap();
    let (ad, aa) = (
        accepted(&det, P::Uniform, 0.95),
        accepted(&duato, P::Uniform, 0.95),
    );
    assert!(
        aa > ad + 0.10,
        "Duato {aa} must clearly beat deterministic {ad}"
    );
    assert!(
        (0.45..0.65).contains(&ad),
        "deterministic sustained {ad}, paper ~0.60"
    );
    assert!(
        (0.70..0.92).contains(&aa),
        "Duato sustained {aa}, paper ~0.80"
    );

    // Pre-saturation latency around 70 cycles (paper Figure 6 b).
    let lat = duato
        .clone()
        .with_run_length(len())
        .try_simulate(0.5)
        .unwrap()
        .mean_latency_cycles();
    assert!(
        (45.0..100.0).contains(&lat),
        "latency {lat}, paper ~70 cycles"
    );
}

#[test]
fn cube_complement_inverts_the_ranking() {
    // Section 9: "the complement is unusual since dimension order
    // routing helps prevent conflicts": deterministic ~47% (close to
    // the 50% bound), Duato saturates early ~35%.
    let det = named("cube-det").unwrap();
    let duato = named("cube-duato").unwrap();
    // Compare near the deterministic algorithm's sweet spot (its
    // throughput peaks around 50% offered, close to the bisection
    // bound) and at deep saturation.
    let ad_peak = accepted(&det, P::Complement, 0.5);
    let aa_peak = accepted(&duato, P::Complement, 0.5);
    assert!(
        ad_peak > aa_peak,
        "deterministic ({ad_peak}) must beat Duato ({aa_peak})"
    );
    assert!(
        (0.33..0.55).contains(&ad_peak),
        "det near the 50% bound: {ad_peak}"
    );
    let ad = accepted(&det, P::Complement, 0.9);
    let aa = accepted(&duato, P::Complement, 0.9);
    assert!(
        ad + 0.02 > aa,
        "det ({ad}) must not fall clearly behind Duato ({aa})"
    );
    assert!(ad < 0.55, "complement is bisection-bound at 50%: {ad}");
    assert!(
        (0.22..0.45).contains(&aa),
        "Duato early saturation {aa}, paper ~0.35"
    );
}

#[test]
fn cube_transpose_and_bitrev_favor_adaptivity() {
    // Section 9: transpose — adaptive 50% "more than twice" the
    // deterministic; bit reversal — 60% vs 20%.
    // Measured at 65% offered: at (or just past) Duato's saturation
    // for both patterns, where the paper reads off its numbers.
    let det = named("cube-det").unwrap();
    let duato = named("cube-duato").unwrap();
    for (pattern, det_hi, duato_lo) in [(P::Transpose, 0.33, 0.40), (P::BitReversal, 0.30, 0.50)] {
        let ad = accepted(&det, pattern, 0.65);
        let aa = accepted(&duato, pattern, 0.65);
        assert!(aa > 1.8 * ad, "{}: Duato {aa} vs det {ad}", pattern.name());
        assert!(
            ad < det_hi,
            "{}: deterministic too good: {ad}",
            pattern.name()
        );
        assert!(aa > duato_lo, "{}: Duato too weak: {aa}", pattern.name());
    }
}

#[test]
fn figure7_absolute_rankings_uniform() {
    // Section 10: Duato ~440 bits/ns > deterministic ~350 > tree-4vc
    // ~280 > tree-1vc ~150; cube latency about half the tree's.
    let specs = paper_scenarios();
    let mut abs: std::collections::HashMap<&str, f64> = Default::default();
    let mut lat_ns: std::collections::HashMap<&str, f64> = Default::default();
    for spec in &specs {
        let norm = spec.normalization();
        let out = spec
            .clone()
            .with_run_length(len())
            .try_simulate(0.95)
            .unwrap();
        abs.insert(
            spec.label(),
            norm.fraction_to_bits_per_ns(out.accepted_fraction),
        );
        let pre = spec
            .clone()
            .with_run_length(len())
            .try_simulate(0.3)
            .unwrap();
        lat_ns.insert(spec.label(), norm.cycles_to_ns(pre.mean_latency_cycles()));
    }
    assert!(abs["cube, Duato"] > abs["cube, deterministic"]);
    assert!(abs["cube, deterministic"] > abs["fat tree, 4 vc"]);
    assert!(abs["fat tree, 4 vc"] > abs["fat tree, 1 vc"]);
    assert!(
        abs["cube, Duato"] > 2.0 * abs["fat tree, 1 vc"],
        "paper: best cube ~3x the 1-vc tree"
    );
    // Latency: cube about half the tree (paper: 0.5 us vs ~1 us at
    // normal load).
    assert!(lat_ns["cube, Duato"] * 1.5 < lat_ns["fat tree, 4 vc"]);
}

#[test]
fn post_saturation_throughput_is_stable() {
    // Section 6 asks for stable accepted bandwidth after saturation;
    // Sections 8-9 confirm it for every configuration.
    for (spec, pattern) in [
        (named("cube-duato").unwrap(), P::Uniform),
        (named("cube-det").unwrap(), P::Transpose),
        (named("tree-2vc").unwrap(), P::Uniform),
    ] {
        let at_sat = accepted(&spec, pattern, 0.85);
        let beyond = accepted(&spec, pattern, 1.0);
        assert!(
            beyond > 0.8 * at_sat,
            "{} under {}: {at_sat} collapses to {beyond}",
            spec.label(),
            pattern.name()
        );
    }
}
