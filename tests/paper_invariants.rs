//! Cross-crate checks of the paper's *static* claims: the normalization
//! algebra of Section 5, the cost-model tables, and the analytic
//! distance results. These involve no simulation and run instantly.

use netperf::costmodel::chien::{
    cube_deterministic_timing, cube_duato_timing, tree_adaptive_timing,
};
use netperf::prelude::*;
use netperf::routing::RoutingAlgorithm;

#[test]
fn normalization_conditions_of_section_5() {
    // k1^n1 = k2^n2 (same processors) and n1 k1^(n1-1) = k2^n2 (same
    // routers) imply k1 = n1; the paper's instance is k1 = 4.
    let tree = KAryNTree::new(4, 4);
    let cube = KAryNCube::new(16, 2);
    assert_eq!(tree.num_nodes(), cube.num_nodes());
    assert_eq!(tree.num_routers(), cube.num_routers());
    assert_eq!(tree.num_nodes(), 256);

    // Pin-count equalization: tree switch arity 8 x 2-byte paths equals
    // cube router arity 4 x 4-byte paths.
    let t = named("tree-4vc").unwrap().normalization();
    let c = named("cube-duato").unwrap().normalization();
    assert_eq!(8 * t.flit_bytes(), 4 * c.flit_bytes());

    // Equal peak aggregate bandwidth: twice the links at half the width
    // (1024 links x 2 bytes = 512 links x 4 bytes).
    let tree_links = tree.num_links(); // includes node links: n k^n
    let cube_net_links = cube.num_links() - cube.num_nodes();
    assert_eq!(tree_links, 2 * cube_net_links);
    assert_eq!(tree_links * t.flit_bytes(), cube_net_links * c.flit_bytes());

    // Same upper bound under uniform traffic: one 64-byte packet per
    // node per 32 cycles for both.
    assert!((t.packet_rate(1.0) - c.packet_rate(1.0)).abs() < 1e-12);
    assert!((t.packet_rate(1.0) - 1.0 / 32.0).abs() < 1e-12);
}

#[test]
fn table1_and_table2_reproduce() {
    let det = cube_deterministic_timing();
    let duato = cube_duato_timing();
    // Table 1 (tolerance: the paper truncates to 2 decimals).
    for (actual, expect) in [
        (det.t_routing_ns, 5.9),
        (det.t_crossbar_ns, 5.85),
        (det.t_link_ns, 6.34),
        (det.clock_ns(), 6.34),
        (duato.t_routing_ns, 7.8),
        (duato.clock_ns(), 7.8),
    ] {
        assert!(
            (actual - expect).abs() < 0.015,
            "{actual} vs paper {expect}"
        );
    }
    // Table 2.
    for (v, clock) in [(1usize, 9.64), (2, 10.24), (4, 10.84)] {
        let t = tree_adaptive_timing(4, v);
        assert!((t.clock_ns() - clock).abs() < 0.015, "{v} vc clock");
    }
}

#[test]
fn equation5_and_distance_distribution() {
    let tree = KAryNTree::new(4, 4);
    // Closed form vs brute force for both permutations it describes.
    let bits = netperf::traffic::AddressBits::for_nodes(256);
    let transpose = |x: NodeId| NodeId(bits.transpose(x.index()) as u32);
    let bitrev = |x: NodeId| NodeId(bits.reverse(x.index()) as u32);
    let dm = KAryNTree::eq5_mean_distance(4, 4);
    assert!((dm - 7.125).abs() < 1e-9);
    assert!((tree.mean_permutation_distance(transpose) - dm).abs() < 1e-9);
    assert!((tree.mean_permutation_distance(bitrev) - dm).abs() < 1e-9);

    // "kn/2 nodes at distance 0 and (k-1) k^(n/2+i-1) nodes at distance
    // n + 2i": check the histogram for bit reversal.
    let mut by_distance = std::collections::BTreeMap::new();
    for x in 0..256u32 {
        let d = tree.min_distance(NodeId(x), bitrev(NodeId(x)));
        *by_distance.entry(d).or_insert(0usize) += 1;
    }
    assert_eq!(by_distance.get(&0), Some(&16)); // k^(n/2)
    assert_eq!(by_distance.get(&6), Some(&48)); // (k-1) k^(n/2)   (i = 1)
    assert_eq!(by_distance.get(&8), Some(&192)); // (k-1) k^(n/2+1) (i = 2)
    assert_eq!(by_distance.len(), 3);
}

#[test]
fn capacity_definitions() {
    // Cube: 2B/N with the bisection counted in both directions = 8/k.
    for k in [4usize, 8, 16] {
        let cube = KAryNCube::new(k, 2);
        let expect = (8.0 / k as f64).min(1.0);
        assert!((cube.uniform_capacity_flits_per_cycle() - expect).abs() < 1e-12);
    }
    // Tree: injection-limited at 1 flit/cycle regardless of shape.
    for (k, n) in [(2usize, 2usize), (4, 4), (3, 3)] {
        assert_eq!(KAryNTree::new(k, n).uniform_capacity_flits_per_cycle(), 1.0);
    }
}

#[test]
fn figure7_axis_scales() {
    // The paper's Figure 7 x-axis tops out around 650 bits/ns: that is
    // the deterministic cube's aggregate capacity.
    let det = named("cube-det").unwrap().normalization();
    let cap = det.capacity_bits_per_ns();
    assert!((cap - 646.0).abs() < 10.0, "{cap}");
    // The tree's 1 vc capacity is ~425 bits/ns.
    let t1 = named("tree-1vc").unwrap().normalization();
    assert!((t1.capacity_bits_per_ns() - 425.0).abs() < 10.0);
}

#[test]
fn degrees_of_freedom_match_section_5() {
    let cube = KAryNCube::new(16, 2);
    assert_eq!(CubeDeterministic::new(cube.clone()).degrees_of_freedom(), 2);
    assert_eq!(CubeDuato::new(cube).degrees_of_freedom(), 6);
    let tree = KAryNTree::new(4, 4);
    for (v, f) in [(1usize, 7usize), (2, 14), (4, 28)] {
        assert_eq!(TreeAdaptive::new(tree.clone(), v).degrees_of_freedom(), f);
    }
}
