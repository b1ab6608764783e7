//! Deadlock-freedom, statically and dynamically.
//!
//! Static: the channel-dependency-graph checker replays each routing
//! function over every reachable state and proves the relevant
//! acyclicity condition. Dynamic: simulations driven far beyond
//! saturation must keep making progress (the engine's watchdog panics
//! after a long global stall, so mere completion is the assertion) and
//! drain completely once sources stop.

use netperf::netsim::sim::{run_simulation, InjectionSpec};
use netperf::prelude::*;
use netperf::routing::{build_cdg, RoutingAlgorithm};
use netperf::traffic::Pattern as P;

#[test]
fn static_dor_acyclic_across_radices() {
    for (k, n) in [(4usize, 2usize), (5, 2), (8, 2), (3, 3), (4, 3), (2, 4)] {
        let algo = CubeDeterministic::new(KAryNCube::new(k, n));
        let g = build_cdg(&algo, |_| true);
        assert!(g.find_cycle().is_none(), "cycle on {k}-ary {n}-cube");
    }
}

#[test]
fn static_tree_acyclic_across_shapes() {
    for (k, n, v) in [
        (2usize, 2usize, 1usize),
        (2, 3, 4),
        (3, 2, 2),
        (4, 2, 4),
        (2, 4, 2),
        (5, 2, 1),
    ] {
        let algo = TreeAdaptive::new(KAryNTree::new(k, n), v);
        let g = build_cdg(&algo, |_| true);
        assert!(
            g.find_cycle().is_none(),
            "cycle on {k}-ary {n}-tree with {v} vc"
        );
    }
}

#[test]
fn static_duato_escape_acyclic_across_radices() {
    for (k, n) in [(4usize, 2usize), (6, 2), (3, 3)] {
        let algo = CubeDuato::new(KAryNCube::new(k, n));
        let escape = build_cdg(&algo, |l| algo.is_escape_vc(l.vc as usize));
        assert!(
            escape.find_cycle().is_none(),
            "escape cycle on {k}-ary {n}-cube"
        );
        let full = build_cdg(&algo, |_| true);
        assert!(
            full.find_cycle().is_some(),
            "expected adaptive cycles on {k}-ary {n}-cube"
        );
    }
}

fn overload_config(spec: &Scenario, pattern: P, cycles: u32) -> netperf::netsim::sim::SimConfig {
    let mut cfg = spec
        .with_pairs(&[("pattern", pattern.spec())])
        .unwrap()
        .with_run_length(RunLength {
            warmup: cycles / 4,
            total: cycles,
        })
        .config_at(1.0);
    // Double the nominal full load: deep saturation.
    if let InjectionSpec::Bernoulli { packets_per_cycle } = cfg.injection {
        cfg.injection = InjectionSpec::Bernoulli {
            packets_per_cycle: (2.0 * packets_per_cycle).min(1.0),
        };
    }
    cfg
}

#[test]
fn dynamic_survival_beyond_saturation_paper_networks() {
    // Every paper configuration, every paper pattern, at twice the
    // capacity, for a shortened run: must complete without tripping the
    // watchdog and must keep delivering.
    for spec in paper_scenarios() {
        for pattern in P::PAPER_SET {
            let algo = spec.build_algorithm();
            let cfg = overload_config(&spec, pattern, 4_000);
            let out = run_simulation(algo.as_ref(), &cfg);
            assert!(
                out.delivered_packets > 100,
                "{} under {} delivered only {}",
                spec.label(),
                pattern.name(),
                out.delivered_packets
            );
        }
    }
}

#[test]
fn dynamic_survival_adversarial_patterns_small() {
    // Hot-spot and tornado on small networks with every algorithm.
    let algos: Vec<Box<dyn RoutingAlgorithm>> = vec![
        Box::new(CubeDeterministic::new(KAryNCube::new(4, 2))),
        Box::new(CubeDuato::new(KAryNCube::new(4, 2))),
        Box::new(TreeAdaptive::new(KAryNTree::new(4, 2), 1)),
        Box::new(TreeAdaptive::new(KAryNTree::new(2, 4), 2)),
    ];
    for algo in &algos {
        for pattern in [
            P::HotSpot {
                hot: 3,
                percent: 50,
            },
            P::Tornado,
            P::NearestNeighbor,
        ] {
            let cfg = netperf::netsim::sim::SimConfig {
                seed: 7,
                warmup_cycles: 500,
                total_cycles: 4_000,
                buffer_depth: 4,
                flits_per_packet: 16,
                capacity_flits_per_cycle: 1.0,
                injection: InjectionSpec::Bernoulli {
                    packets_per_cycle: 0.05,
                },
                pattern,
                injection_limit: None,
                request_reply: false,
            };
            let out = run_simulation(algo.as_ref(), &cfg);
            assert!(
                out.delivered_packets > 50,
                "{} under {} delivered only {}",
                algo.name(),
                pattern.name(),
                out.delivered_packets
            );
        }
    }
}

#[test]
fn network_drains_after_burst_all_algorithms() {
    // A burst of traffic, then silence: every flit must eventually
    // arrive (conservation) for every algorithm on mid-size networks.
    use netperf::netsim::engine::Engine;
    use netperf::traffic::{InjectionProcess, Rng64, TrafficGen};

    struct Burst(u32);
    impl InjectionProcess for Burst {
        fn tick(&mut self, rng: &mut Rng64) -> bool {
            if self.0 > 0 {
                self.0 -= 1;
                rng.chance(0.08)
            } else {
                false
            }
        }
        fn mean_rate(&self) -> f64 {
            0.0
        }
    }

    let algos: Vec<Box<dyn RoutingAlgorithm>> = vec![
        Box::new(CubeDeterministic::new(KAryNCube::new(8, 2))),
        Box::new(CubeDuato::new(KAryNCube::new(8, 2))),
        Box::new(TreeAdaptive::new(KAryNTree::new(4, 3), 1)),
        Box::new(TreeAdaptive::new(KAryNTree::new(4, 3), 4)),
    ];
    for algo in &algos {
        let n = algo.topology().num_nodes();
        let pattern = TrafficGen::new(P::Uniform, n);
        let mut eng = Engine::new(algo.as_ref(), 4, 16, pattern, &|_| Box::new(Burst(500)), 21);
        eng.run(500 + 20_000);
        let c = eng.counters();
        assert!(c.created_packets > 100, "{}", algo.name());
        assert_eq!(
            c.delivered_packets,
            c.created_packets,
            "{} lost packets",
            algo.name()
        );
        assert_eq!(c.in_flight_flits, 0, "{} stranded flits", algo.name());
        assert_eq!(eng.buffered_flits(), 0, "{}", algo.name());
        // After a complete drain every credit counter must be back at
        // the full buffer depth.
        eng.check_credit_invariant()
            .unwrap_or_else(|v| panic!("{}: credit invariant violated at {v:?}", algo.name()));
    }
}
