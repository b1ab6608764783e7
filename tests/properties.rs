//! Property-based tests (proptest) on the invariants the reproduction
//! rests on: topology structure, pattern algebra, routing minimality,
//! and full-simulation conservation laws under randomized
//! configurations.

use proptest::prelude::*;

use netperf::prelude::*;
use netperf::routing::RoutingAlgorithm;
use netperf::topology::cube::CubeDirection;
use netperf::topology::{families, validate, Digits, FamilyShape, PortPeer, PortRef};
use netperf::traffic::{Pattern as P, Rng64, TrafficGen};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cubes_validate(k in 2usize..9, n in 1usize..4) {
        let cube = KAryNCube::new(k, n);
        prop_assert!(validate(&cube).is_ok());
        prop_assert_eq!(cube.num_nodes(), k.pow(n as u32));
    }

    #[test]
    fn trees_validate(k in 2usize..7, n in 1usize..5) {
        prop_assume!(k.pow(n as u32) <= 4096);
        let tree = KAryNTree::new(k, n);
        prop_assert!(validate(&tree).is_ok());
        prop_assert_eq!(tree.num_routers(), n * k.pow(n as u32 - 1));
    }

    #[test]
    fn any_buildable_family_instance_is_a_valid_network(
        fi in 0usize..families().len(),
        k in 2usize..6,
        n in 1usize..4,
        taper in 1usize..5,
        s in any::<(u64, u64, u64)>(),
    ) {
        // The registry invariants every family must satisfy, whatever
        // its shape: the wiring validates, every port peering is
        // symmetric, and the port-level minimal distance is a metric.
        let f = &families()[fi];
        let shape = FamilyShape::tapered(k, n, taper);
        prop_assume!((f.num_nodes)(&shape) <= 2048);
        let topo = (f.build)(&shape);
        prop_assert!(validate(&*topo).is_ok(), "{} {:?}", f.slug, shape);
        for r in (0..topo.num_routers()).map(|r| RouterId(r as u32)) {
            for p in 0..topo.ports(r) {
                match topo.peer(PortRef::new(r, p)) {
                    PortPeer::Router(pr) => prop_assert_eq!(
                        topo.peer(pr),
                        PortPeer::Router(PortRef::new(r, p)),
                        "{} {:?}: asymmetric wiring at router {} port {}",
                        f.slug, shape, r.0, p
                    ),
                    PortPeer::Node(node) => {
                        prop_assert_eq!(topo.node_port(node), PortRef::new(r, p));
                    }
                    PortPeer::Unconnected => {}
                }
            }
        }
        let nn = topo.num_nodes() as u64;
        let (a, b, c) = (
            NodeId((s.0 % nn) as u32),
            NodeId((s.1 % nn) as u32),
            NodeId((s.2 % nn) as u32),
        );
        let d = |x, y| topo.min_distance(x, y);
        prop_assert_eq!(d(a, a), 0);
        prop_assert_eq!(d(a, b), d(b, a));
        prop_assert!(
            d(a, c) <= d(a, b) + d(b, c),
            "{} {:?}: triangle violated on {:?} {:?} {:?}",
            f.slug, shape, a, b, c
        );
    }

    #[test]
    fn digits_roundtrip(k in 2usize..8, n in 1usize..6, seed in any::<u64>()) {
        let d = Digits::new(k, n);
        let x = (seed % d.count() as u64) as usize;
        prop_assert_eq!(d.compose(&d.expand(x)), x);
        // Prefix length is symmetric.
        let y = (seed / 7 % d.count() as u64) as usize;
        prop_assert_eq!(d.common_prefix_len(x, y), d.common_prefix_len(y, x));
    }

    #[test]
    fn cube_distance_is_a_metric(k in 3usize..9, n in 1usize..4, s in any::<(u64, u64, u64)>()) {
        let cube = KAryNCube::new(k, n);
        let nn = cube.num_nodes() as u64;
        let (a, b, c) = (
            NodeId((s.0 % nn) as u32),
            NodeId((s.1 % nn) as u32),
            NodeId((s.2 % nn) as u32),
        );
        let d = |x, y| cube.hop_distance(x, y);
        prop_assert_eq!(d(a, a), 0);
        prop_assert_eq!(d(a, b), d(b, a));
        prop_assert!(d(a, c) <= d(a, b) + d(b, c));
        // Diameter bound: n * floor(k/2).
        prop_assert!(d(a, b) <= n * (k / 2));
    }

    #[test]
    fn tree_distance_matches_nca(k in 2usize..6, n in 2usize..5, s in any::<(u64, u64)>()) {
        prop_assume!(k.pow(n as u32) <= 4096);
        let tree = KAryNTree::new(k, n);
        let nn = tree.num_nodes() as u64;
        let (a, b) = (NodeId((s.0 % nn) as u32), NodeId((s.1 % nn) as u32));
        let d = tree.min_distance(a, b);
        prop_assert_eq!(d, tree.min_distance(b, a));
        if a == b {
            prop_assert_eq!(d, 0);
        } else {
            prop_assert_eq!(d, 2 * (n - tree.nca_level(a, b)));
            prop_assert!(d >= 2 && d <= 2 * n);
        }
    }

    #[test]
    fn bit_patterns_are_involutions_and_permutations(bits in 1u32..11, seed in any::<u64>()) {
        let n = 1usize << bits;
        let ab = netperf::traffic::AddressBits::for_nodes(n);
        let x = (seed % n as u64) as usize;
        prop_assert_eq!(ab.complement(ab.complement(x)), x);
        prop_assert_eq!(ab.reverse(ab.reverse(x)), x);
        if bits % 2 == 0 {
            prop_assert_eq!(ab.transpose(ab.transpose(x)), x);
        }
        prop_assert_eq!(ab.butterfly(ab.butterfly(x)), x);
        // Shuffle has order `bits`.
        let mut y = x;
        for _ in 0..bits {
            y = ab.shuffle(y);
        }
        prop_assert_eq!(y, x);
    }

    #[test]
    fn uniform_pattern_never_selects_self(n in 2usize..300, seed in any::<u64>()) {
        let g = TrafficGen::new(P::Uniform, n);
        let mut rng = Rng64::seed_from(seed);
        let src = NodeId((seed % n as u64) as u32);
        for _ in 0..50 {
            let d = g.dest(src, &mut rng).unwrap();
            prop_assert!(d != src);
            prop_assert!(d.index() < n);
        }
    }

    #[test]
    fn dor_paths_are_minimal_and_terminate(k in 3usize..9, n in 1usize..4, s in any::<(u64, u64)>()) {
        let cube = KAryNCube::new(k, n);
        let algo = CubeDeterministic::new(cube.clone());
        let nn = cube.num_nodes() as u64;
        let (a, b) = (NodeId((s.0 % nn) as u32), NodeId((s.1 % nn) as u32));
        let mut cur = a;
        let mut hops = 0usize;
        while let Some((dir, _)) = algo.next_hop(cur, b) {
            cur = cube.neighbor(cur, dir);
            hops += 1;
            prop_assert!(hops <= n * k);
        }
        prop_assert_eq!(cur, b);
        prop_assert_eq!(hops, cube.hop_distance(a, b));
    }

    #[test]
    fn duato_candidates_always_exist_and_are_minimal(
        k in 3usize..8, s in any::<(u64, u64)>()
    ) {
        let cube = KAryNCube::new(k, 2);
        let algo = CubeDuato::new(cube.clone());
        let nn = cube.num_nodes() as u64;
        let (a, b) = (NodeId((s.0 % nn) as u32), NodeId((s.1 % nn) as u32));
        prop_assume!(a != b);
        let mut cand = netperf::routing::CandidateSet::default();
        algo.route(RouterId(a.0), None, b, &mut cand);
        prop_assert!(!cand.preferred.is_empty(), "adaptive candidates required");
        prop_assert_eq!(cand.fallback.len(), 1, "exactly one escape lane");
        let base = cube.hop_distance(a, b);
        for c in cand.iter_all() {
            let dir = CubeDirection::from_port(c.port as usize, 2).unwrap();
            let next = cube.neighbor(a, dir);
            prop_assert_eq!(cube.hop_distance(next, b), base - 1);
        }
    }

    #[test]
    fn tree_routing_reaches_destination_via_any_ascent(
        k in 2usize..5, n in 2usize..4, s in any::<(u64, u64, u64)>()
    ) {
        let tree = KAryNTree::new(k, n);
        let algo = TreeAdaptive::new(tree.clone(), 2);
        let nn = tree.num_nodes() as u64;
        let (a, b) = (NodeId((s.0 % nn) as u32), NodeId((s.1 % nn) as u32));
        prop_assume!(a != b);
        // Walk one random candidate chain.
        let mut rng = Rng64::seed_from(s.2);
        let mut sw = tree.leaf_switch(a);
        let mut cand = netperf::routing::CandidateSet::default();
        let mut hops = 1usize;
        loop {
            algo.route(sw, None, b, &mut cand);
            prop_assert!(!cand.preferred.is_empty());
            let pick = cand.preferred[rng.index(cand.preferred.len())];
            match tree.peer(netperf::topology::PortRef::new(sw, pick.port as usize)) {
                netperf::topology::PortPeer::Node(node) => {
                    prop_assert_eq!(node, b);
                    hops += 1;
                    break;
                }
                netperf::topology::PortPeer::Router(pr) => {
                    sw = pr.router;
                    hops += 1;
                    prop_assert!(hops <= 2 * n + 1);
                }
                netperf::topology::PortPeer::Unconnected => {
                    prop_assert!(false, "routed into a dead port");
                }
            }
        }
        prop_assert_eq!(hops, tree.min_distance(a, b));
    }
}

proptest! {
    // Full-simulation properties are expensive: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simulation_conserves_packets_under_random_config(
        seed in any::<u64>(),
        rate_milli in 1u32..40,
        buf in 2usize..6,
        vcs in 1usize..5,
        tree_side in any::<bool>(),
    ) {
        use netperf::netsim::engine::Engine;
        use netperf::traffic::{InjectionProcess};

        struct Burst(u32, f64);
        impl InjectionProcess for Burst {
            fn tick(&mut self, rng: &mut Rng64) -> bool {
                if self.0 > 0 { self.0 -= 1; rng.chance(self.1) } else { false }
            }
            fn mean_rate(&self) -> f64 { 0.0 }
        }

        let algo: Box<dyn RoutingAlgorithm> = if tree_side {
            Box::new(TreeAdaptive::new(KAryNTree::new(2, 4), vcs))
        } else {
            Box::new(CubeDuato::new(KAryNCube::new(4, 2)))
        };
        let n = algo.topology().num_nodes();
        let rate = rate_milli as f64 / 1000.0;
        let pattern = TrafficGen::new(P::Uniform, n);
        let mut eng = Engine::new(
            algo.as_ref(), buf, 8, pattern,
            &move |_| Box::new(Burst(400, rate)), seed,
        );
        // Conservation at every step, then complete drainage.
        for _ in 0..100 {
            eng.step();
            prop_assert_eq!(eng.buffered_flits(), eng.counters().in_flight_flits);
        }
        eng.run(400 + 15_000 - 100);
        let c = eng.counters();
        prop_assert_eq!(c.delivered_packets, c.created_packets);
        prop_assert_eq!(c.in_flight_flits, 0);
        prop_assert!(eng.check_credit_invariant().is_ok());
        // Every delivered packet went to the right place with sane timing.
        for p in eng.packets() {
            prop_assert!(p.delivered != netperf::netsim::flit::NEVER);
            prop_assert!(p.injected >= p.created);
            let lat = p.latency().unwrap();
            prop_assert!(lat >= 8, "latency below serialization bound");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A scenario is its flag list: over random valid pair lists —
    /// every family, pattern (hot spots included), injection model,
    /// throttle, seed mode, run length and fault plan, in non-canonical
    /// spellings — `from_pairs(to_pairs(s)) == s`, and the canonical
    /// pairs are a fixed point.
    #[test]
    fn scenario_pairs_round_trip(
        shape in 0usize..6,
        pattern in 0usize..10,
        hot in any::<u32>(),
        percent in 0u8..=100,
        injection in 0usize..3,
        means in any::<(u32, u32)>(),
        throttle in 0u32..12,
        buffer in 1usize..9,
        bytes in 1usize..300,
        seed in any::<(u64, bool)>(),
        run in any::<(u32, u32, bool)>(),
        faults in 0usize..4,
        label in any::<bool>(),
    ) {
        let (family, k, n, algo, vcs) = [
            ("cube", "4", "2", "det", "4"),
            ("torus", "4", "3", "duato", "4"),
            ("fat-tree", "4", "3", "adaptive", "3"),
            ("tapered-tree", "4", "2", "adaptive", "2"),
            ("mesh", "5", "2", "adaptive", "2"),
            ("thc", "4", "2", "deterministic", "4"),
        ][shape];
        let mut pairs: Vec<(&str, String)> = vec![
            ("topology", family.into()),
            ("k", k.into()),
            ("n", n.into()),
            ("algo", algo.into()),
            ("vcs", vcs.into()),
        ];
        if family == "tapered-tree" {
            pairs.push(("taper", (1 + buffer % 3).to_string()));
        }
        let patterns = [
            "uniform", "complement", "bit-reversal", "transpose", "shuffle", "butterfly",
            "tornado", "neighbor", "hotspot",
        ];
        pairs.push((
            "pattern",
            match patterns.get(pattern) {
                Some(p) => p.to_string(),
                None => format!("hotspot:{}:{percent}", hot % 16),
            },
        ));
        let on = f64::from(1 + means.0 % 500);
        let off = f64::from(means.1 % 1000) / 7.0 + 1.0;
        pairs.push((
            "injection",
            ["bernoulli".to_string(), "periodic".into(), format!("onoff:{on}:{off}")][injection]
                .clone(),
        ));
        pairs.push((
            "throttle",
            match throttle {
                0 => "auto".to_string(),
                1 => "off".into(),
                l => l.to_string(),
            },
        ));
        pairs.push(("buffer", buffer.to_string()));
        pairs.push(("packet-bytes", bytes.to_string()));
        pairs.push(match seed {
            (s, true) => ("fixed-seed", format!("0x{s:x}")),
            (s, false) => ("seed", s.to_string()),
        });
        let (warmup, extra, quick) = run;
        if quick {
            pairs.push(("quick", "true".into()));
        }
        if warmup % 3 != 0 {
            let warmup = warmup % 3000;
            pairs.push(("warmup", warmup.to_string()));
            pairs.push(("cycles", (warmup + 1 + extra % 5000).to_string()));
        }
        let plans = ["none", "links=0.1", "routers=1,seed=7", "transient=1:100:10"];
        pairs.push(("faults", plans[faults].into()));
        if label {
            pairs.push(("label", "a label, with = and : in it".into()));
        }

        let s = Scenario::from_pairs(&pairs);
        // Bit patterns on the 25-node mesh are refused; nothing else is.
        if s.is_err() {
            prop_assert!(family == "mesh" && (1..6).contains(&pattern), "refused: {:?}", s);
        }
        prop_assume!(s.is_ok());
        let s = s.unwrap();
        let canonical = s.to_pairs();
        let again = Scenario::from_pairs(&canonical).unwrap();
        prop_assert_eq!(&again, &s);
        prop_assert_eq!(again.to_pairs(), canonical);
    }
}
