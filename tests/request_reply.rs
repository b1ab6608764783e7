//! The request–reply extension: shared-memory style traffic where every
//! delivered request triggers a same-size reply to the sender.

use netperf::netsim::engine::Engine;
use netperf::netsim::flit::NEVER;
use netperf::netsim::sim::{run_simulation, InjectionSpec, SimConfig};
use netperf::prelude::*;
use netperf::traffic::{InjectionProcess, Pattern as P, Rng64, TrafficGen};

struct Burst(u32, f64);
impl InjectionProcess for Burst {
    fn tick(&mut self, rng: &mut Rng64) -> bool {
        if self.0 > 0 {
            self.0 -= 1;
            rng.chance(self.1)
        } else {
            false
        }
    }
    fn mean_rate(&self) -> f64 {
        0.0
    }
}

#[test]
fn every_request_gets_exactly_one_reply() {
    let algo = CubeDuato::new(KAryNCube::new(4, 2));
    let pattern = TrafficGen::new(P::Uniform, 16);
    let mut eng = Engine::new(&algo, 4, 16, pattern, &|_| Box::new(Burst(400, 0.02)), 5);
    eng.set_request_reply(true);
    eng.run(400 + 15_000);

    let c = eng.counters();
    assert_eq!(c.delivered_packets, c.created_packets, "everything drains");
    assert_eq!(c.in_flight_flits, 0);

    let requests: Vec<_> = eng.packets().iter().filter(|p| !p.is_reply()).collect();
    let replies: Vec<_> = eng.packets().iter().filter(|p| p.is_reply()).collect();
    assert!(!requests.is_empty());
    assert_eq!(requests.len(), replies.len(), "one reply per request");

    // Each reply mirrors its request and postdates its delivery.
    for (i, p) in eng.packets().iter().enumerate() {
        if p.is_reply() {
            let req = &eng.packets()[p.in_reply_to as usize];
            assert!(!req.is_reply(), "replies are terminal");
            assert_eq!(p.src, req.dest);
            assert_eq!(p.dest, req.src);
            assert_eq!(p.flits, req.flits);
            assert_eq!(p.created, req.delivered, "reply created on delivery");
            assert!(
                p.delivered != NEVER && p.delivered > req.delivered,
                "packet {i}"
            );
        }
    }
}

#[test]
fn open_loop_mode_produces_no_replies() {
    let algo = CubeDuato::new(KAryNCube::new(4, 2));
    let pattern = TrafficGen::new(P::Uniform, 16);
    let mut eng = Engine::new(&algo, 4, 16, pattern, &|_| Box::new(Burst(300, 0.02)), 5);
    eng.run(5_000);
    assert!(eng.packets().iter().all(|p| !p.is_reply()));
}

#[test]
fn request_reply_doubles_effective_load() {
    // At the same request rate, request-reply traffic carries twice the
    // flits: accepted bandwidth doubles while below saturation.
    let spec = named("cube-duato").unwrap();
    let open = spec
        .clone()
        .with_run_length(RunLength {
            warmup: 1_500,
            total: 7_000,
        })
        .config_at(0.3);
    let mut rr = open;
    rr.request_reply = true;
    let algo = spec.build_algorithm();
    let a = run_simulation(algo.as_ref(), &open);
    let b = run_simulation(algo.as_ref(), &rr);
    assert!(
        (b.accepted_fraction / a.accepted_fraction - 2.0).abs() < 0.15,
        "open {} vs request-reply {}",
        a.accepted_fraction,
        b.accepted_fraction
    );
}

#[test]
fn request_reply_saturates_earlier_in_request_rate() {
    // The reply traffic consumes the same network: saturation in
    // *request* rate arrives at about half the open-loop point.
    let spec = named("cube-duato").unwrap();
    let len = RunLength {
        warmup: 1_500,
        total: 7_000,
    };
    let mut cfg = spec.clone().with_run_length(len).config_at(0.6);
    cfg.request_reply = true;
    let algo = spec.build_algorithm();
    let out = run_simulation(algo.as_ref(), &cfg);
    // 0.6 requests + 0.6 replies = 1.2 of capacity: saturated.
    assert!(
        out.accepted_fraction < 1.0 && out.backlog_packets > 100,
        "accepted {}, backlog {}",
        out.accepted_fraction,
        out.backlog_packets
    );

    let mut cfg = spec.clone().with_run_length(len).config_at(0.35);
    cfg.request_reply = true;
    let out = run_simulation(algo.as_ref(), &cfg);
    // 0.7 of capacity total: still fluid.
    assert!(
        (out.accepted_fraction - 0.7).abs() < 0.05,
        "accepted {}",
        out.accepted_fraction
    );
}

#[test]
fn simconfig_flag_roundtrip() {
    let mut cfg = SimConfig::paper_protocol(
        P::Uniform,
        InjectionSpec::Bernoulli {
            packets_per_cycle: 0.01,
        },
        16,
        0.5,
    );
    assert!(!cfg.request_reply);
    cfg.request_reply = true;
    let algo = CubeDeterministic::new(KAryNCube::new(4, 2));
    cfg.total_cycles = 3_000;
    cfg.warmup_cycles = 500;
    let out = run_simulation(&algo, &cfg);
    assert!(out.delivered_packets > 0);
}
