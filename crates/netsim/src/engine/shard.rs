//! Sharded intra-run stepping: one engine cycle decomposed across
//! worker threads with deterministic phase barriers.
//!
//! A [`ShardPlan`] partitions routers (and, independently, nodes) into
//! `S` contiguous, 64-aligned id ranges. A sharded cycle runs the *same
//! kernel* as a serial one — the handlers of `soa.rs` — over one
//! `Lanes` view per shard (disjoint `split_at_mut` slices of the lane
//! banks), each with a `Handoff` sink that buffers what leaves the
//! shard; a serial barrier after each phase applies the buffers in
//! shard order. The result is **bit-identical** to the serial run —
//! counters, the packet table, RNG consumption order and the telemetry
//! event stream — for every shard and thread count
//! (`tests/engine_equivalence.rs`).
//!
//! # Why each phase decomposes
//!
//! * **Link** — a worker owns its routers' *send* side outright; the
//!   receive side of an intra-shard hop is applied immediately, a
//!   cross-shard hop defers the receive to the barrier. Each input lane
//!   has exactly one upstream source, so at most one flit arrives per
//!   lane per cycle and receive application is order-free; the only
//!   order-sensitive observables — probe events — are buffered per
//!   shard and replayed in shard order, which *is* the serial
//!   ascending-id emission order. The packet table is read-only during
//!   the phase; delivery stamps are applied at the barrier.
//! * **Crossbar** — all mutations are router-local except the one-flit
//!   credit acknowledgment, deferred when it leaves the shard; nothing
//!   in the phase reads a credit count. The phase makes no probe calls.
//! * **Routing** — the *preparation* (round-robin pending-lane scan and
//!   the routing-function call) is a pure function of pre-phase state
//!   and runs shard-parallel; the *selection* consumes the engine's
//!   single shared RNG stream and therefore runs serially at the
//!   barrier, in ascending router order — the serial consumption order.
//! * **Injection** — packet ids are global sequence numbers and the
//!   probe observes them in node order, so the phase stays serial; on
//!   the wheel schedule it only touches firing and backlogged nodes.

use super::soa::{Lanes, Prepared, Sink, SoaBanks};
use super::{Counters, Engine};
use crate::fault::FaultModel;
use crate::flit::{Flit, PacketRec, NEVER};
use routing::{CandidateSet, RoutingAlgorithm};
use telemetry::{LinkKind, Probe};

/// The shard decomposition of one engine plus its reusable per-shard
/// scratch state. Build one with [`Engine::shard_plan`] and feed it to
/// the `*_sharded` run methods; it is only valid for engines of the
/// same topology it was built from.
pub struct ShardPlan {
    /// Worker threads: `<= 1` runs every shard on the calling thread
    /// (in ascending shard order — bit-identical by construction),
    /// `> 1` spawns one scoped thread per shard per phase.
    threads: usize,
    /// Router id boundaries, `shards + 1` entries; interior boundaries
    /// are multiples of 64 so the worklist bitset words split exactly.
    router_starts: Vec<usize>,
    /// Node id boundaries, aligned the same way (independent of router
    /// attachment: a shard's nodes need not hang off its routers).
    node_starts: Vec<usize>,
    /// Per-shard scratch, reused across cycles.
    scratch: Vec<ShardScratch>,
}

impl ShardPlan {
    /// Effective shard count (requests beyond the router count are
    /// clamped at construction).
    pub fn shards(&self) -> usize {
        self.scratch.len()
    }

    /// Worker-thread setting (`<= 1` = run shards on the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Everything one shard's workers produce for the barriers to consume.
/// All queues are drained every cycle, so the allocations are reused
/// for the lifetime of the plan.
#[derive(Default)]
struct ShardScratch {
    /// Flits that crossed into another shard: `(router, input lane,
    /// flit)`, the `moved` stamp already set by the sender.
    flits_out: Vec<(u32, u16, Flit)>,
    /// Credit acknowledgments for another shard's `(router, output
    /// lane)` and `(node, vc)`.
    credits_out: Vec<(u32, u16)>,
    node_credits_out: Vec<(u32, u8)>,
    /// Packets whose tail was ejected this cycle (stamped at the
    /// barrier), and those among them awaiting a reply.
    delivered: Vec<u32>,
    replies: Vec<u32>,
    /// Probe events from the router leg and from the node (injection)
    /// leg of the link phase, in emission order.
    router_events: Vec<LinkEvent>,
    node_events: Vec<LinkEvent>,
    /// Routing decisions prepared by this shard, ascending router
    /// order, and the reusable candidate-set allocations behind them.
    decisions: Vec<(u32, Prepared, CandidateSet)>,
    cand_pool: Vec<CandidateSet>,
    /// Counter deltas. Decrements wrap below the zero-initialized
    /// delta and are reconciled by the wrapping merge.
    counters: Counters,
    /// Flit movements executed by this shard this cycle.
    moves: u64,
}

/// A buffered probe observation from the link phase (the only parallel
/// phase that makes probe calls). Replayed on the stepping thread, so
/// probes need not be `Send`.
enum LinkEvent {
    Link {
        packet: u32,
        router: u32,
        port: u16,
        vc: u8,
        kind: LinkKind,
    },
    Delivered {
        packet: u32,
        node: u32,
    },
    Injection {
        packet: u32,
        node: u32,
        vc: u8,
    },
}

/// A shard's sink: effects that leave the shard's lanes are buffered
/// for the barrier.
struct Handoff<'a> {
    scratch: &'a mut ShardScratch,
    packets: &'a [PacketRec],
    request_reply: bool,
}

impl Sink for Handoff<'_> {
    const WHOLE: bool = false;

    fn counters(&mut self) -> &mut Counters {
        &mut self.scratch.counters
    }
    fn moves(&mut self) -> &mut u64 {
        &mut self.scratch.moves
    }
    fn link_flit(
        &mut self,
        _: u32,
        f: &Flit,
        router: usize,
        port: usize,
        vc: usize,
        kind: LinkKind,
    ) {
        self.scratch.router_events.push(LinkEvent::Link {
            packet: f.packet(),
            router: router as u32,
            port: port as u16,
            vc: vc as u8,
            kind,
        });
    }
    fn tail_ejected(&mut self, _: u32, packet: u32, node: u32) {
        let rec = &self.packets[packet as usize];
        debug_assert_eq!(rec.delivered, NEVER);
        self.scratch.delivered.push(packet);
        if self.request_reply && !rec.is_reply() {
            self.scratch.replies.push(packet);
        }
        self.scratch.counters.delivered_packets += 1;
        self.scratch
            .router_events
            .push(LinkEvent::Delivered { packet, node });
    }
    fn injection_flit(&mut self, _: u32, f: &Flit, node: usize, vc: usize) {
        self.scratch.node_events.push(LinkEvent::Injection {
            packet: f.packet(),
            node: node as u32,
            vc: vc as u8,
        });
    }
    fn flit_out(&mut self, router: usize, lane: usize, f: Flit) {
        self.scratch.flits_out.push((router as u32, lane as u16, f));
    }
    fn credit_out(&mut self, router: usize, lane: usize) {
        self.scratch.credits_out.push((router as u32, lane as u16));
    }
    fn node_credit_out(&mut self, node: usize, vc: usize) {
        self.scratch.node_credits_out.push((node as u32, vc as u8));
    }
}

/// 64-aligned boundary table: `shards + 1` monotone offsets into
/// `0..len` whose interior entries are multiples of 64. Later shards
/// may receive empty ranges when there are fewer id words than shards.
fn aligned_starts(len: usize, shards: usize) -> Vec<usize> {
    let words = len.div_ceil(64);
    (0..=shards)
        .map(|i| ((words * i).div_ceil(shards) * 64).min(len))
        .collect()
}

/// Run one closure per shard context: on the calling thread in
/// ascending shard order when `threads <= 1`, else on one scoped worker
/// thread per shard. Both modes execute the identical worker code; the
/// barriers around this call are what make the schedule unobservable.
fn run_shards<C: Send, W: Fn(&mut C) + Sync>(threads: usize, ctxs: &mut [C], work: W) {
    if threads <= 1 {
        ctxs.iter_mut().for_each(work);
    } else {
        let work = &work;
        std::thread::scope(|s| {
            for c in ctxs.iter_mut() {
                s.spawn(move || work(c));
            }
        });
    }
}

/// Drain `q` through `f`, keeping its allocation.
fn drain<T>(q: &mut Vec<T>, f: impl FnMut(T)) {
    q.drain(..).for_each(f);
}

/// One `(view, sink)` worker context per shard.
fn shard_ctxs<'b>(
    banks: &'b mut SoaBanks,
    plan: &'b mut ShardPlan,
    packets: &'b [PacketRec],
    request_reply: bool,
) -> Vec<(Lanes<'b>, Handoff<'b>)> {
    let views = (banks.view()).split(&plan.router_starts, &plan.node_starts);
    let sinks = plan.scratch.iter_mut().map(|scratch| Handoff {
        scratch,
        packets,
        request_reply,
    });
    views.into_iter().zip(sinks).collect()
}

impl<'a, A: RoutingAlgorithm + ?Sized, P: Probe, F: FaultModel> Engine<'a, A, P, F> {
    /// Build a shard decomposition of this engine: `shards` contiguous,
    /// 64-aligned router ranges (nodes are ranged independently) plus
    /// the per-shard scratch the sharded run reuses across cycles.
    ///
    /// A request beyond the router count is clamped (with a warning on
    /// stderr) rather than rejected, so tiny topologies keep working
    /// under a blanket `--shards` setting. `threads <= 1` runs every
    /// shard on the calling thread; `> 1` spawns one scoped thread per
    /// shard per phase. Either way the outcome is bit-identical.
    pub fn shard_plan(&self, shards: usize, threads: usize) -> ShardPlan {
        let want = shards.max(1);
        let cap = self.w.num_routers.max(1);
        if want > cap {
            eprintln!(
                "warning: {want} shards exceed the {cap} router(s) of this topology; \
                 clamping to {cap}"
            );
        }
        let shards = want.min(cap);
        ShardPlan {
            threads: threads.max(1),
            router_starts: aligned_starts(self.w.num_routers, shards),
            node_starts: aligned_starts(self.w.num_nodes, shards),
            scratch: (0..shards).map(|_| ShardScratch::default()).collect(),
        }
    }

    /// Phases 1–3 of one cycle, sharded: each parallel phase over one
    /// view per shard, each followed by its serial barrier.
    pub(super) fn sharded_phases<const MASKED: bool>(
        &mut self,
        banks: &mut SoaBanks,
        plan: &mut ShardPlan,
    ) where
        F: Sync,
    {
        debug_assert_eq!(
            plan.router_starts.last(),
            Some(&self.w.num_routers),
            "shard plan built for a different topology"
        );
        let (threads, request_reply) = (plan.threads, self.request_reply);
        {
            let env = self.env();
            let mut ctxs = shard_ctxs(banks, plan, &self.packets, request_reply);
            run_shards(threads, &mut ctxs, |(v, sink)| {
                v.phase_link::<MASKED, F, _>(&env, sink)
            });
        }
        self.link_barrier(&mut banks.view(), plan);
        {
            let env = self.env();
            let mut ctxs = shard_ctxs(banks, plan, &self.packets, request_reply);
            run_shards(threads, &mut ctxs, |(v, sink)| {
                v.phase_xbar::<MASKED, F, _>(&env, sink)
            });
        }
        self.xbar_barrier(&mut banks.view(), plan);
        {
            let (env, algo, packets) = (self.env(), self.algo, &self.packets[..]);
            let mut ctxs = shard_ctxs(banks, plan, packets, request_reply);
            run_shards(threads, &mut ctxs, |(v, sink)| {
                let scratch = &mut *sink.scratch;
                v.for_each_routable::<MASKED>(|v, lr| {
                    let mut cand = scratch.cand_pool.pop().unwrap_or_default();
                    match v.prepare_route::<MASKED, A, F>(&env, algo, packets, lr, &mut cand) {
                        Some(d) => {
                            let r = (v.router_base() + lr) as u32;
                            scratch.decisions.push((r, d, cand));
                        }
                        None => scratch.cand_pool.push(cand),
                    }
                });
            });
        }
        // Selection: the prepared decisions in ascending router order
        // (shard-ascending, ascending within a shard) — exactly the
        // serial order of RNG draws, counter updates and probe calls.
        let mut v = banks.view();
        for sh in plan.scratch.iter_mut() {
            let pool = &mut sh.cand_pool;
            drain(&mut sh.decisions, |(r, d, cand)| {
                self.apply_route(&mut v, r as usize, &d, &cand);
                pool.push(cand);
            });
        }
    }

    /// Serial barrier after the link phase: apply the cross-shard flit
    /// arrivals and the deferred delivery stamps, replay the buffered
    /// probe events in serial order, spawn replies.
    fn link_barrier(&mut self, v: &mut Lanes<'_>, plan: &mut ShardPlan) {
        let cycle = self.cycle;
        for sh in plan.scratch.iter_mut() {
            drain(&mut sh.flits_out, |(r2, dl, f)| {
                v.arrive(r2 as usize, dl as usize, f)
            });
            drain(&mut sh.delivered, |pkt| {
                self.packets[pkt as usize].delivered = cycle
            });
        }
        // Probe replay: router legs shard-ascending (= ascending router
        // order), then node legs (= ascending node order) — the serial
        // emission order.
        for sh in plan.scratch.iter_mut() {
            drain(&mut sh.router_events, |e| self.replay_link_event(e));
        }
        for sh in plan.scratch.iter_mut() {
            drain(&mut sh.node_events, |e| self.replay_link_event(e));
            // Replies were recorded during the router-ascending
            // ejection walk, so shard-ascending concatenation is the
            // serial push order.
            self.reply_buf.append(&mut sh.replies);
        }
        self.spawn_replies();
        self.merge_shard_counters(plan);
    }

    /// Replay one buffered link-phase probe observation.
    fn replay_link_event(&mut self, e: LinkEvent) {
        let cycle = self.cycle;
        match e {
            LinkEvent::Link {
                packet,
                router,
                port,
                vc,
                kind,
            } => self.probe.link_flit(cycle, packet, router, port, vc, kind),
            LinkEvent::Delivered { packet, node } => {
                self.probe.packet_delivered(cycle, packet, node)
            }
            LinkEvent::Injection { packet, node, vc } => {
                self.probe.injection_flit(cycle, packet, node, vc)
            }
        }
    }

    /// Serial barrier after the crossbar phase: return the credits that
    /// left their shard.
    fn xbar_barrier(&mut self, v: &mut Lanes<'_>, plan: &mut ShardPlan) {
        let (lanes, vcs) = (self.lanes_per_router, self.vcs);
        for sh in plan.scratch.iter_mut() {
            drain(&mut sh.credits_out, |(r2, ul)| {
                v.out_credits[r2 as usize * lanes + ul as usize] += 1
            });
            drain(&mut sh.node_credits_out, |(nn, vc)| {
                v.node_credits[nn as usize * vcs + vc as usize] += 1
            });
        }
        self.merge_shard_counters(plan);
    }

    /// Fold every shard's counter/movement delta into the engine
    /// (wrapping: deltas may hold borrowed decrements).
    fn merge_shard_counters(&mut self, plan: &mut ShardPlan) {
        for sh in plan.scratch.iter_mut() {
            let d = std::mem::take(&mut sh.counters);
            let c = &mut self.counters;
            c.delivered_flits = c.delivered_flits.wrapping_add(d.delivered_flits);
            c.delivered_packets = c.delivered_packets.wrapping_add(d.delivered_packets);
            c.in_flight_flits = c.in_flight_flits.wrapping_add(d.in_flight_flits);
            c.dropped_flits = c.dropped_flits.wrapping_add(d.dropped_flits);
            self.moves_this_cycle += std::mem::take(&mut sh.moves);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_starts_cover_and_align() {
        for (len, shards) in [(256, 4), (100, 3), (64, 4), (1, 4), (4096, 8), (130, 2)] {
            let starts = aligned_starts(len, shards);
            assert_eq!(starts.len(), shards + 1);
            assert_eq!(starts[0], 0);
            assert_eq!(*starts.last().unwrap(), len);
            for w in starts.windows(2) {
                assert!(w[0] <= w[1]);
            }
            for &s in &starts[1..shards] {
                assert!(s % 64 == 0 || s == len, "interior boundary {s} unaligned");
            }
        }
    }
}
