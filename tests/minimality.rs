//! End-to-end path minimality: every delivered packet must have been
//! routed by exactly `min_distance(src, dest) - 1` routers — the engine
//! counts actual routing decisions per packet, so this checks the whole
//! pipeline (injection, adaptive selection, escape fallbacks, ejection)
//! against the topology's shortest-path metric.

use netperf::netsim::engine::Engine;
use netperf::netsim::flit::NEVER;
use netperf::prelude::*;
use netperf::routing::RoutingAlgorithm;
use netperf::traffic::{Bernoulli, Pattern as P, TrafficGen};

fn check_minimality(algo: &dyn RoutingAlgorithm, pattern: P, rate: f64, cycles: u32) {
    let topo = algo.topology();
    let n = topo.num_nodes();
    let pattern_gen = TrafficGen::new(pattern, n);
    let mut eng = Engine::new(
        algo,
        4,
        16,
        pattern_gen,
        &move |_| Box::new(Bernoulli::new(rate)),
        0xFEED,
    );
    eng.run(cycles);
    let mut delivered = 0usize;
    for p in eng.packets() {
        if p.delivered == NEVER {
            continue;
        }
        delivered += 1;
        let dist = topo.min_distance(NodeId(p.src), NodeId(p.dest));
        assert_eq!(
            p.hops as usize,
            dist - 1,
            "{}: packet {} -> {} took {} routing steps, minimal is {}",
            algo.name(),
            p.src,
            p.dest,
            p.hops,
            dist - 1
        );
    }
    assert!(
        delivered > 200,
        "{}: only {delivered} packets delivered",
        algo.name()
    );
}

#[test]
fn deterministic_cube_is_minimal() {
    let algo = CubeDeterministic::new(KAryNCube::new(8, 2));
    check_minimality(&algo, P::Uniform, 0.02, 6_000);
}

#[test]
fn duato_cube_is_minimal_even_under_heavy_adaptive_pressure() {
    let algo = CubeDuato::new(KAryNCube::new(8, 2));
    // Drive it hard so escape channels and re-entry actually happen.
    check_minimality(&algo, P::Uniform, 0.04, 6_000);
    check_minimality(&algo, P::Transpose, 0.04, 6_000);
}

#[test]
fn tree_adaptive_is_minimal_for_all_vc_counts() {
    for vcs in [1usize, 2, 4] {
        let algo = TreeAdaptive::new(KAryNTree::new(4, 3), vcs);
        check_minimality(&algo, P::Uniform, 0.02, 6_000);
    }
}

#[test]
fn paper_networks_are_minimal_at_saturation() {
    // The real 256-node configurations at deep saturation: adaptivity,
    // escapes and throttling all active, yet every path stays minimal.
    for spec in [named("cube-duato").unwrap(), named("tree-4vc").unwrap()] {
        let algo = spec.build_algorithm();
        let topo = algo.topology();
        let n = topo.num_nodes();
        let norm = spec.normalization();
        let rate = norm.packet_rate(0.95);
        let gen = TrafficGen::new(P::BitReversal, n);
        let mut eng = Engine::new(
            algo.as_ref(),
            4,
            norm.flits_per_packet() as u16,
            gen,
            &move |_| Box::new(Bernoulli::new(rate)),
            0xABCD,
        );
        eng.run(4_000);
        let mut checked = 0;
        for p in eng.packets() {
            if p.delivered == NEVER {
                continue;
            }
            let dist = topo.min_distance(NodeId(p.src), NodeId(p.dest));
            assert_eq!(p.hops as usize, dist - 1, "{}", spec.label());
            checked += 1;
        }
        assert!(checked > 500, "{}: checked {checked}", spec.label());
    }
}
