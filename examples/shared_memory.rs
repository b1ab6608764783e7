//! Shared-memory style traffic: requests and replies.
//!
//! ```sh
//! cargo run --release --example shared_memory
//! ```
//!
//! The paper's introduction is a tour of shared-memory machines — DASH
//! with its separate request and reply cubes, DDM and KSR fat-tree COMA
//! designs — and its uniform benchmark is chosen as "representative of
//! well-balanced shared memory computations". This example closes the
//! loop that the open-loop benchmark abstracts away: every delivered
//! request triggers a reply. Two effects follow, both visible below:
//!
//! 1. the network carries twice the flits per request, so saturation in
//!    *request rate* arrives at roughly half the open-loop point;
//! 2. round-trip time adds the reply's queueing at the *remote* node,
//!    so remote-read latency degrades faster than one-way latency.

use netperf::netsim::engine::Engine;
use netperf::netsim::flit::NEVER;
use netperf::prelude::*;
use netperf::traffic::{Bernoulli, TrafficGen};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = named("cube-duato").unwrap();
    let norm = spec.normalization();

    println!("16-ary 2-cube, Duato routing, uniform requests with replies\n");
    println!(
        "{:>12} {:>14} {:>14} {:>16} {:>14}",
        "request rate", "one-way (open)", "one-way (r+r)", "round trip", "backlog"
    );

    for fraction in [0.1, 0.2, 0.3, 0.4, 0.45] {
        // Open-loop reference.
        let open = spec.try_simulate(fraction)?;

        // Closed-loop request-reply run at the same request rate.
        let algo = spec.build_algorithm();
        let rate = norm.packet_rate(fraction);
        let pattern = TrafficGen::new(Pattern::Uniform, 256);
        let mut eng = Engine::new(
            algo.as_ref(),
            4,
            norm.flits_per_packet() as u16,
            pattern,
            &move |_| Box::new(Bernoulli::new(rate)),
            0xD5,
        );
        eng.set_request_reply(true);
        eng.run(20_000);

        // One-way latency over all delivered packets; round trip =
        // reply delivery - request creation (includes the remote node's
        // injection queueing, which the one-way metric hides).
        let mut one_way = netstats::Accumulator::new();
        let mut round_trip = netstats::Accumulator::new();
        for p in eng.packets() {
            if p.injected < 2_000 || p.delivered == NEVER {
                continue;
            }
            one_way.push((p.delivered - p.injected) as f64);
            if p.is_reply() {
                let req = &eng.packets()[p.in_reply_to as usize];
                round_trip.push((p.delivered - req.created) as f64);
            }
        }
        println!(
            "{:>11.0}% {:>11.0} ns {:>11.0} ns {:>13.0} ns {:>14}",
            fraction * 100.0,
            norm.cycles_to_ns(open.mean_latency_cycles()),
            norm.cycles_to_ns(one_way.mean()),
            norm.cycles_to_ns(round_trip.mean()),
            eng.source_queue_len(),
        );
    }

    println!("\nAt a 45% request rate the network carries ~90% of capacity in");
    println!("requests plus replies: the closed loop saturates at half the");
    println!("open-loop point, and round-trip latency runs away first — the");
    println!("reason DASH dedicated separate networks to requests and replies.");
    Ok(())
}
