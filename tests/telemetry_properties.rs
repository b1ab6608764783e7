//! Property-based tests (proptest) for the telemetry plane: across
//! randomized small scenarios, every delivered packet's latency
//! decomposition must satisfy the exact accounting identity
//! `src_queue + routing + blocked + transfer == delivered − created`,
//! component by component against the raw packet trace.

use proptest::prelude::*;

use netperf::prelude::*;

/// Small networks that keep a proptest case under ~50 ms: (family,
/// routing, vcs).
fn spec_for(topo: usize) -> [(&'static str, &'static str); 3] {
    match topo {
        0 => [("topology", "cube"), ("algo", "duato"), ("vcs", "4")],
        1 => [("topology", "tree"), ("algo", "adaptive"), ("vcs", "2")],
        _ => [("topology", "mesh"), ("algo", "adaptive"), ("vcs", "2")],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn latency_components_sum_exactly(
        topo in 0usize..3,
        pattern in 0usize..3,
        load_pct in 10u32..90,
        salt in any::<u64>(),
    ) {
        let load = f64::from(load_pct) / 100.0;
        let pattern = ["uniform", "transpose", "complement"][pattern];
        let salt = salt.to_string();
        let mut pairs: Vec<(&str, &str)> = spec_for(topo).to_vec();
        pairs.extend([
            ("k", "4"),
            ("pattern", pattern),
            ("seed", salt.as_str()),
            ("warmup", "100"),
            ("cycles", "1200"),
        ]);
        let scenario = Scenario::from_pairs(&pairs)
            .unwrap()
            .with_telemetry(TelemetryConfig { stride: 64, record_events: true });
        let (_, rec) = scenario.try_simulate_traced(load).unwrap();

        let breakdowns = rec.breakdowns();
        prop_assert_eq!(
            breakdowns.len(),
            rec.packet_traces().iter().filter(|t| t.delivered != netperf::telemetry::NEVER).count(),
            "one breakdown per delivered packet"
        );
        for b in &breakdowns {
            let t = &rec.packet_traces()[b.packet as usize];
            // The identity, checked against the raw per-packet stamps:
            // the four components partition delivered − created.
            prop_assert_eq!(
                b.src_queue + b.routing + b.blocked + b.transfer,
                t.delivered - t.created,
                "components of packet {} do not sum to its lifetime", b.packet
            );
            // And each component matches its defining stamp.
            prop_assert_eq!(b.src_queue, t.injected - t.created);
            prop_assert_eq!(b.routing, u32::from(t.hops));
            prop_assert_eq!(b.transfer, 2 * u32::from(t.hops) + u32::from(t.flits));
            prop_assert_eq!(b.total(), t.delivered - t.created);
        }
    }
}
