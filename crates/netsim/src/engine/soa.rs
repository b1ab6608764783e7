//! The lane store and the phase kernel.
//!
//! The unit of state in a wormhole router is the lane, and every lane
//! of the network lives here, in flat struct-of-arrays banks
//! ([`SoaBanks`]): per-lane arrays indexed `router * lanes + lane`
//! (node-side: `node * vcs + vc`), per-router masks and cursors by
//! router id, per-port cursors and counters by `router * ports + port`,
//! and the four phase worklists as raw bitset words. Nothing else holds
//! lane state; snapshots, state hashes and the invariant checks read
//! the banks directly.
//!
//! The link, crossbar and routing-preparation handlers exist once, as
//! methods of a borrowed view ([`Lanes`]) over a contiguous router
//! range and node range of the banks:
//!
//! * the serial run steps the view of the whole network
//!   ([`SoaBanks::view`]) with a [`Sink`] that applies every effect in
//!   place ([`Direct`]);
//! * a sharded run steps one view per shard ([`Lanes::split`] — shard
//!   ranges are contiguous and 64-aligned, so every array splits with
//!   `split_at_mut`) with a sink that hands cross-shard flits, credits,
//!   probe events and counter deltas to the barrier (`shard.rs`).
//!
//! Each handler is also generic over a const `MASKED`: `true` walks the
//! worklists and occupancy masks, `false` is the `reference` audit that
//! visits every router, port and lane and inspects the queues directly.
//! The mutations are the same code either way, and both visit in
//! ascending id order — the order the shared selection RNG observes.

use super::{Counters, DROP_ROUTE, NO_ROUTE};
use crate::active::{clear_bit, set_bit, ActiveSet};
use crate::fault::FaultModel;
use crate::flit::{Flit, PacketRec, NEVER};
use crate::wiring::{Peer, Wiring};
use routing::{CandidateSet, RoutingAlgorithm};
use telemetry::{LinkKind, Probe};
use topology::{NodeId, RouterId};

const NO_FLIT: Flit = Flit::new(0, 0, 0);

/// A depth-packed bank of flit queues: one flat slot array strided by
/// the configured lane depth, with the head/length cursors of every
/// lane in parallel byte arrays. At the experiments' depth-4 lanes all
/// cursors of a 64-lane router share one cache line.
///
/// Lane 0 starts on a cache-line boundary (the array is over-allocated
/// by one line and the slots begin at `offset`), so a lane whose size
/// divides the line — 32 bytes at depth 4 — never straddles two lines.
///
/// Nothing downstream observes a ring's internal head offset —
/// snapshots and state hashes serialize a queue as `len` followed by
/// the flits front to back.
#[derive(Default)]
pub(super) struct QueueBank {
    /// `offset + lane * cap + i` for slot `i` of lane `lane`.
    slots: Vec<Flit>,
    /// Where lane 0 starts in `slots`.
    offset: usize,
    /// Ring cursor of each lane's front flit, `0..cap`.
    head: Vec<u8>,
    /// Occupancy of each lane, `0..=cap`.
    len: Vec<u8>,
    /// The uniform lane depth.
    cap: usize,
}

/// Cache-line size the slot arrays align lane 0 to.
const LINE: usize = 64;

impl QueueBank {
    fn new(lanes: usize, cap: usize) -> Self {
        let pad = LINE / std::mem::size_of::<Flit>() - 1;
        let slots = vec![NO_FLIT; lanes * cap + pad];
        // `align_offset` may decline (usize::MAX); that only costs speed.
        let offset = slots.as_ptr().align_offset(LINE).min(pad);
        QueueBank {
            slots,
            offset,
            head: vec![0; lanes],
            len: vec![0; lanes],
            cap,
        }
    }

    fn view(&mut self) -> Queues<'_> {
        Queues {
            slots: &mut self.slots[self.offset..],
            head: &mut self.head,
            len: &mut self.len,
            cap: self.cap,
        }
    }

    /// Depth of every lane in the bank.
    pub(super) fn capacity(&self) -> usize {
        self.cap
    }

    /// Occupancy of lane `l`.
    pub(super) fn len(&self, l: usize) -> usize {
        self.len[l] as usize
    }

    /// The flits of lane `l`, front to back.
    pub(super) fn iter(&self, l: usize) -> impl Iterator<Item = &Flit> + '_ {
        let (cap, h) = (self.cap, self.head[l] as usize);
        (0..self.len(l)).map(move |i| &self.slots[self.offset + l * cap + (h + i) % cap])
    }

    /// Flits buffered in the whole bank.
    pub(super) fn total(&self) -> u64 {
        self.len.iter().map(|&n| u64::from(n)).sum()
    }

    /// Append a flit to lane `l` (snapshot restore).
    pub(super) fn push(&mut self, l: usize, f: Flit) {
        self.view().push(l, f);
    }
}

/// Split the first `n` elements off a borrowed slice, leaving the rest.
fn cut<'a, T>(s: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(s).split_at_mut(n);
    *s = tail;
    head
}

/// A contiguous lane range of a [`QueueBank`], borrowed; the queue
/// operations of the phase kernel live here.
pub(super) struct Queues<'a> {
    slots: &'a mut [Flit],
    head: &'a mut [u8],
    len: &'a mut [u8],
    cap: usize,
}

impl<'a> Queues<'a> {
    /// Split off the first `lanes` lanes as their own view.
    fn take_front(&mut self, lanes: usize) -> Queues<'a> {
        Queues {
            slots: cut(&mut self.slots, lanes * self.cap),
            head: cut(&mut self.head, lanes),
            len: cut(&mut self.len, lanes),
            cap: self.cap,
        }
    }

    #[inline]
    pub(super) fn is_empty(&self, l: usize) -> bool {
        self.len[l] == 0
    }

    #[inline]
    pub(super) fn is_full(&self, l: usize) -> bool {
        self.len[l] as usize == self.cap
    }

    /// Free slots in lane `l`.
    #[inline]
    pub(super) fn free(&self, l: usize) -> usize {
        self.cap - self.len[l] as usize
    }

    /// The front flit of lane `l`, if any.
    #[inline]
    pub(super) fn front(&self, l: usize) -> Option<&Flit> {
        if self.len[l] == 0 {
            return None;
        }
        Some(&self.slots[l * self.cap + self.head[l] as usize])
    }

    /// Remove and return the front flit of lane `l` (which must be
    /// non-empty; every caller checks via [`Queues::front`] first).
    #[inline]
    fn pop(&mut self, l: usize) -> Flit {
        debug_assert!(self.len[l] > 0, "pop from empty lane");
        let h = self.head[l] as usize;
        self.head[l] = if h + 1 == self.cap { 0 } else { (h + 1) as u8 };
        self.len[l] -= 1;
        self.slots[l * self.cap + h]
    }

    /// Append a flit to the back of lane `l`. A push into a full lane
    /// is a flow-control bug, not a recoverable event.
    #[inline]
    pub(super) fn push(&mut self, l: usize, f: Flit) {
        assert!(
            !self.is_full(l),
            "flit queue overflow: flow control violated"
        );
        let mut idx = self.head[l] as usize + self.len[l] as usize;
        if idx >= self.cap {
            idx -= self.cap;
        }
        self.slots[l * self.cap + idx] = f;
        self.len[l] += 1;
    }
}

/// The engine's lane store (see the module docs for the layouts).
#[derive(Default)]
pub(super) struct SoaBanks {
    // Geometry.
    pub(super) lanes: usize,
    pub(super) ports: usize,
    pub(super) vcs: usize,
    /// Local-lane decomposition tables (`lane -> port`, `lane -> vc`),
    /// shared by every router: two cache-resident byte loads instead of
    /// a division in the hot handlers.
    lane_port: Vec<u8>,
    lane_vc: Vec<u8>,
    // Router state, lane-indexed.
    /// Input lanes.
    pub(super) in_q: QueueBank,
    /// Assigned output lane of the packet at the head of each input
    /// lane (`NO_ROUTE` if none, `DROP_ROUTE` while draining). One byte
    /// suffices: a router has at most 64 lanes.
    pub(super) in_route: Vec<u8>,
    /// Output lanes.
    pub(super) out_q: QueueBank,
    /// Credits: free buffers in the downstream input lane.
    pub(super) out_credits: Vec<u8>,
    // Router state, router-indexed lane masks (bit = local lane).
    /// Output lanes a crossbar path currently ends at.
    pub(super) out_bound: Vec<u64>,
    /// Input lanes holding an unrouted header at the front.
    pub(super) pending: Vec<u64>,
    /// Non-empty input lanes.
    pub(super) in_occ: Vec<u64>,
    /// Non-empty output lanes.
    pub(super) out_occ: Vec<u64>,
    /// Input lanes with an assigned route (`in_route != NO_ROUTE`).
    pub(super) routed: Vec<u64>,
    /// Round-robin cursor of the routing phase.
    pub(super) route_rr: Vec<u32>,
    // Router state, port-indexed.
    /// Round-robin cursor of the link arbiter.
    pub(super) link_rr: Vec<u8>,
    /// Flits transmitted per directed channel (ejection included).
    pub(super) link_flits: Vec<u64>,
    // Node state: the injection lanes (one per VC), their credits
    // towards the router's node port, occupancy mask and arbiter cursor.
    pub(super) node_lanes: QueueBank,
    pub(super) node_credits: Vec<u8>,
    pub(super) node_lane_occ: Vec<u64>,
    pub(super) node_lane_rr: Vec<u8>,
    // Phase worklists — pure functions of the masks at a cycle
    // boundary: routers with `out_occ != 0`, with `in_occ & routed !=
    // 0`, with `pending != 0`, and nodes with `node_lane_occ != 0`.
    pub(super) link_work: ActiveSet,
    pub(super) xbar_work: ActiveSet,
    pub(super) route_work: ActiveSet,
    pub(super) inject_work: ActiveSet,
}

impl SoaBanks {
    /// Empty banks for `w` with `vcs` lanes per port, `depth` flits
    /// deep, every credit counter full.
    pub(super) fn new(w: &Wiring, vcs: usize, depth: usize) -> Self {
        let (nr, nn, lanes) = (w.num_routers, w.num_nodes, w.ports * vcs);
        assert!(
            lanes <= 64,
            "lane masks support at most 64 lanes per router"
        );
        assert!(
            (1..=u8::MAX as usize).contains(&depth),
            "lane depth {depth} unsupported"
        );
        SoaBanks {
            lanes,
            ports: w.ports,
            vcs,
            lane_port: (0..lanes).map(|ll| (ll / vcs) as u8).collect(),
            lane_vc: (0..lanes).map(|ll| (ll % vcs) as u8).collect(),
            in_q: QueueBank::new(nr * lanes, depth),
            in_route: vec![NO_ROUTE; nr * lanes],
            out_q: QueueBank::new(nr * lanes, depth),
            out_credits: vec![depth as u8; nr * lanes],
            out_bound: vec![0; nr],
            pending: vec![0; nr],
            in_occ: vec![0; nr],
            out_occ: vec![0; nr],
            routed: vec![0; nr],
            route_rr: vec![0; nr],
            link_rr: vec![0; nr * w.ports],
            link_flits: vec![0; nr * w.ports],
            node_lanes: QueueBank::new(nn * vcs, depth),
            node_credits: vec![depth as u8; nn * vcs],
            node_lane_occ: vec![0; nn],
            node_lane_rr: vec![0; nn],
            link_work: ActiveSet::new(nr),
            xbar_work: ActiveSet::new(nr),
            route_work: ActiveSet::new(nr),
            inject_work: ActiveSet::new(nn),
        }
    }

    /// Rebuild the phase worklists from the occupancy masks (snapshot
    /// restore).
    pub(super) fn rebuild_worklists(&mut self) {
        for (set, live) in [
            (&mut self.link_work, &self.out_occ),
            (&mut self.route_work, &self.pending),
            (&mut self.inject_work, &self.node_lane_occ),
        ] {
            set.clear();
            for (id, _) in live.iter().enumerate().filter(|(_, &m)| m != 0) {
                set.insert(id);
            }
        }
        self.xbar_work.clear();
        for (r, (occ, routed)) in self.in_occ.iter().zip(&self.routed).enumerate() {
            if occ & routed != 0 {
                self.xbar_work.insert(r);
            }
        }
    }

    /// The view of the whole network.
    pub(super) fn view(&mut self) -> Lanes<'_> {
        Lanes {
            router_base: 0,
            node_base: 0,
            lanes: self.lanes,
            ports: self.ports,
            vcs: self.vcs,
            lane_port: &self.lane_port,
            lane_vc: &self.lane_vc,
            in_q: self.in_q.view(),
            in_route: &mut self.in_route,
            out_q: self.out_q.view(),
            out_credits: &mut self.out_credits,
            out_bound: &mut self.out_bound,
            pending: &mut self.pending,
            in_occ: &mut self.in_occ,
            out_occ: &mut self.out_occ,
            routed: &mut self.routed,
            route_rr: &mut self.route_rr,
            link_rr: &mut self.link_rr,
            link_flits: &mut self.link_flits,
            node_lanes: self.node_lanes.view(),
            node_credits: &mut self.node_credits,
            node_lane_occ: &mut self.node_lane_occ,
            node_lane_rr: &mut self.node_lane_rr,
            link_words: self.link_work.words_mut(),
            xbar_words: self.xbar_work.words_mut(),
            route_words: self.route_work.words_mut(),
            inject_words: self.inject_work.words_mut(),
        }
    }
}

/// Where the effects of a phase handler go when they leave the lanes it
/// owns: telemetry, counters, the packet table, and — for a view that
/// is not the whole network — flits and credits bound for another view.
pub(super) trait Sink {
    /// The view spans the whole network: every peer is owned, so the
    /// ownership tests compile out and the `*_out` handoffs are dead.
    const WHOLE: bool;

    /// Aggregate counters (a shard accumulates wrapping deltas).
    fn counters(&mut self) -> &mut Counters;
    /// Flit movements executed this cycle.
    fn moves(&mut self) -> &mut u64;
    /// `Probe::link_flit`.
    fn link_flit(
        &mut self,
        cycle: u32,
        f: &Flit,
        router: usize,
        port: usize,
        vc: usize,
        kind: LinkKind,
    );
    /// A tail flit was ejected into `node`: stamp the delivery, queue
    /// the reply (request-reply mode), count and report the packet.
    fn tail_ejected(&mut self, cycle: u32, packet: u32, node: u32);
    /// `Probe::injection_flit`.
    fn injection_flit(&mut self, cycle: u32, f: &Flit, node: usize, vc: usize);
    /// A flit crossed into input lane `lane` of unowned `router`.
    fn flit_out(&mut self, router: usize, lane: usize, f: Flit);
    /// A buffer freed downstream of output lane `lane` of unowned
    /// `router`.
    fn credit_out(&mut self, router: usize, lane: usize);
    /// A buffer freed downstream of injection lane `vc` of unowned
    /// `node`.
    fn node_credit_out(&mut self, node: usize, vc: usize);
}

/// The serial run's sink: every effect is applied where it happens.
pub(super) struct Direct<'a, P> {
    pub(super) probe: &'a mut P,
    pub(super) counters: &'a mut Counters,
    pub(super) moves: &'a mut u64,
    pub(super) packets: &'a mut [PacketRec],
    pub(super) reply_buf: &'a mut Vec<u32>,
    pub(super) request_reply: bool,
}

impl<P: Probe> Sink for Direct<'_, P> {
    const WHOLE: bool = true;

    #[inline]
    fn counters(&mut self) -> &mut Counters {
        self.counters
    }
    #[inline]
    fn moves(&mut self) -> &mut u64 {
        self.moves
    }
    #[inline]
    fn link_flit(
        &mut self,
        cycle: u32,
        f: &Flit,
        router: usize,
        port: usize,
        vc: usize,
        kind: LinkKind,
    ) {
        self.probe.link_flit(
            cycle,
            f.packet(),
            router as u32,
            port as u16,
            vc as u8,
            kind,
        );
    }
    #[inline]
    fn tail_ejected(&mut self, cycle: u32, packet: u32, node: u32) {
        let rec = &mut self.packets[packet as usize];
        debug_assert_eq!(rec.delivered, NEVER);
        rec.delivered = cycle;
        if self.request_reply && !rec.is_reply() {
            self.reply_buf.push(packet);
        }
        self.counters.delivered_packets += 1;
        self.probe.packet_delivered(cycle, packet, node);
    }
    #[inline]
    fn injection_flit(&mut self, cycle: u32, f: &Flit, node: usize, vc: usize) {
        self.probe
            .injection_flit(cycle, f.packet(), node as u32, vc as u8);
    }
    fn flit_out(&mut self, _: usize, _: usize, _: Flit) {
        unreachable!("the whole network has no outside")
    }
    fn credit_out(&mut self, _: usize, _: usize) {
        unreachable!("the whole network has no outside")
    }
    fn node_credit_out(&mut self, _: usize, _: usize) {
        unreachable!("the whole network has no outside")
    }
}

/// The read-only surroundings of the link and crossbar phases.
pub(super) struct Env<'e, F> {
    pub(super) w: &'e Wiring,
    pub(super) faults: &'e F,
    pub(super) cycle: u32,
}

/// What the routing phase settles for one router before the
/// RNG-consuming output selection: which header gets this cycle's
/// routing opportunity (its candidates are left in the caller's
/// [`CandidateSet`]), and what the fault plane says about it.
pub(super) struct Prepared {
    /// The header's input lane, local to the router.
    pub(super) lane: usize,
    pub(super) packet: u32,
    /// Fault-plane dead end: drop instead of selecting.
    pub(super) unroutable: bool,
    /// Some candidate direction is transiently down (reroute telemetry).
    pub(super) degraded: bool,
}

/// The members of worklist word `wi` to visit: the word itself when
/// `MASKED`, else every id below `n` the word could hold.
#[inline]
fn members<const MASKED: bool>(word: u64, wi: usize, n: usize) -> u64 {
    if MASKED {
        word
    } else {
        u64::MAX >> (64 - (n - (wi << 6)).min(64))
    }
}

/// The lanes of routers `router_base..` and nodes `node_base..`,
/// borrowed from the banks. All indices into the arrays are local to
/// the view; `router_base`/`node_base` (multiples of 64, so worklist
/// words split exactly) translate to and from global ids.
pub(super) struct Lanes<'a> {
    router_base: usize,
    node_base: usize,
    lanes: usize,
    ports: usize,
    vcs: usize,
    lane_port: &'a [u8],
    lane_vc: &'a [u8],
    pub(super) in_q: Queues<'a>,
    pub(super) in_route: &'a mut [u8],
    pub(super) out_q: Queues<'a>,
    pub(super) out_credits: &'a mut [u8],
    pub(super) out_bound: &'a mut [u64],
    pub(super) pending: &'a mut [u64],
    pub(super) in_occ: &'a mut [u64],
    out_occ: &'a mut [u64],
    pub(super) routed: &'a mut [u64],
    pub(super) route_rr: &'a mut [u32],
    link_rr: &'a mut [u8],
    link_flits: &'a mut [u64],
    pub(super) node_lanes: Queues<'a>,
    pub(super) node_credits: &'a mut [u8],
    pub(super) node_lane_occ: &'a mut [u64],
    pub(super) node_lane_rr: &'a mut [u8],
    link_words: &'a mut [u64],
    pub(super) xbar_words: &'a mut [u64],
    pub(super) route_words: &'a mut [u64],
    pub(super) inject_words: &'a mut [u64],
}

impl<'a> Lanes<'a> {
    /// Split off the first `routers` routers and `nodes` nodes (both
    /// multiples of 64 unless they exhaust the view) as their own view.
    fn take_front(&mut self, routers: usize, nodes: usize) -> Lanes<'a> {
        let (lanes, ports, vcs) = (self.lanes, self.ports, self.vcs);
        let (rw, nw) = (routers.div_ceil(64), nodes.div_ceil(64));
        let head = Lanes {
            router_base: self.router_base,
            node_base: self.node_base,
            lanes,
            ports,
            vcs,
            lane_port: self.lane_port,
            lane_vc: self.lane_vc,
            in_q: self.in_q.take_front(routers * lanes),
            in_route: cut(&mut self.in_route, routers * lanes),
            out_q: self.out_q.take_front(routers * lanes),
            out_credits: cut(&mut self.out_credits, routers * lanes),
            out_bound: cut(&mut self.out_bound, routers),
            pending: cut(&mut self.pending, routers),
            in_occ: cut(&mut self.in_occ, routers),
            out_occ: cut(&mut self.out_occ, routers),
            routed: cut(&mut self.routed, routers),
            route_rr: cut(&mut self.route_rr, routers),
            link_rr: cut(&mut self.link_rr, routers * ports),
            link_flits: cut(&mut self.link_flits, routers * ports),
            node_lanes: self.node_lanes.take_front(nodes * vcs),
            node_credits: cut(&mut self.node_credits, nodes * vcs),
            node_lane_occ: cut(&mut self.node_lane_occ, nodes),
            node_lane_rr: cut(&mut self.node_lane_rr, nodes),
            link_words: cut(&mut self.link_words, rw),
            xbar_words: cut(&mut self.xbar_words, rw),
            route_words: cut(&mut self.route_words, rw),
            inject_words: cut(&mut self.inject_words, nw),
        };
        self.router_base += routers;
        self.node_base += nodes;
        head
    }

    /// One view per shard: shard `i` owns routers
    /// `router_starts[i]..router_starts[i + 1]` and the node range
    /// likewise (boundary tables as built by `Engine::shard_plan`).
    pub(super) fn split(mut self, router_starts: &[usize], node_starts: &[usize]) -> Vec<Self> {
        (router_starts.windows(2).zip(node_starts.windows(2)))
            .map(|(rs, ns)| self.take_front(rs[1] - rs[0], ns[1] - ns[0]))
            .collect()
    }

    /// Routers owned by this view.
    pub(super) fn num_routers(&self) -> usize {
        self.pending.len()
    }

    fn num_nodes(&self) -> usize {
        self.node_lane_occ.len()
    }

    /// The first router owned by this view.
    pub(super) fn router_base(&self) -> usize {
        self.router_base
    }

    /// Phase 1: link arbitration for the owned routers, then for the
    /// owned nodes' injection channels.
    pub(super) fn phase_link<const MASKED: bool, F: FaultModel, S: Sink>(
        &mut self,
        env: &Env<'_, F>,
        sink: &mut S,
    ) {
        // The worklists shrink only while their own phase runs (a
        // drained member is dropped right after its visit), so a
        // per-word snapshot is exact; see `active.rs`.
        for wi in 0..self.link_words.len() {
            let mut bits = members::<MASKED>(self.link_words[wi], wi, self.num_routers());
            while bits != 0 {
                let lr = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.link_router::<MASKED, F, S>(env, sink, lr);
                if self.out_occ[lr] == 0 {
                    clear_bit(self.link_words, lr);
                }
            }
        }
        for wi in 0..self.inject_words.len() {
            let mut bits = members::<MASKED>(self.inject_words[wi], wi, self.num_nodes());
            while bits != 0 {
                let ln = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.link_node::<MASKED, F, S>(env, sink, ln);
                if self.node_lane_occ[ln] == 0 {
                    clear_bit(self.inject_words, ln);
                }
            }
        }
    }

    /// Link phase, one router: a fair round-robin arbiter moves at most
    /// one flit per physical channel direction — into the peer router's
    /// input lane (costing a credit), or into the attached node, which
    /// always sinks.
    fn link_router<const MASKED: bool, F: FaultModel, S: Sink>(
        &mut self,
        env: &Env<'_, F>,
        sink: &mut S,
        lr: usize,
    ) {
        let (cycle, vcs, ports) = (env.cycle, self.vcs, self.ports);
        let r = self.router_base + lr;
        let base = lr * self.lanes;
        let port_lanes = (1u64 << vcs) - 1;
        // Walk the directions straight off a lane mask: ascending lane
        // order is ascending port order. The handler only ever clears
        // `out_occ` bits of the port being served, so the local copy
        // stays exact for the ports not yet visited.
        let mut dirs = if MASKED {
            self.out_occ[lr]
        } else {
            u64::MAX >> (64 - self.lanes)
        };
        while dirs != 0 {
            let p = self.lane_port[dirs.trailing_zeros() as usize] as usize;
            dirs &= !(port_lanes << (p * vcs));
            if F::ACTIVE && env.faults.channel_down(r, p) {
                continue; // channel down: nothing crosses this cycle
            }
            let peer = env.w.peer(r, p);
            if peer == Peer::None {
                // Flits are never routed towards an uncabled port.
                debug_assert!(!MASKED, "flit buffered on an uncabled port");
                continue;
            }
            let mut v = self.link_rr[lr * ports + p] as usize;
            for _ in 0..vcs {
                let next = if v + 1 == vcs { 0 } else { v + 1 };
                let ll = p * vcs + v;
                let l = base + ll;
                let ready = (!MASKED || self.out_occ[lr] & (1u64 << ll) != 0)
                    && (matches!(peer, Peer::Node(_)) || self.out_credits[l] > 0)
                    && matches!(self.out_q.front(l), Some(f) if f.moved < cycle);
                if !ready {
                    v = next;
                    continue;
                }
                let mut f = self.out_q.pop(l);
                if self.out_q.is_empty(l) {
                    self.out_occ[lr] &= !(1u64 << ll);
                }
                self.link_rr[lr * ports + p] = next as u8;
                self.link_flits[lr * ports + p] += 1;
                *sink.moves() += 1;
                match peer {
                    Peer::Node(node) => {
                        let c = sink.counters();
                        c.delivered_flits += 1;
                        c.in_flight_flits = c.in_flight_flits.wrapping_sub(1);
                        sink.link_flit(cycle, &f, r, p, v, LinkKind::Ejection);
                        if f.is_tail() {
                            sink.tail_ejected(cycle, f.packet(), node);
                        }
                    }
                    Peer::Router { router, port } => {
                        self.out_credits[l] -= 1;
                        f.moved = cycle;
                        sink.link_flit(cycle, &f, r, p, v, LinkKind::Network);
                        self.send(sink, router as usize, port as usize * vcs + v, f);
                    }
                    Peer::None => unreachable!("skipped above"),
                }
                break;
            }
        }
    }

    /// Link phase, one node-side injection channel (node -> router).
    fn link_node<const MASKED: bool, F: FaultModel, S: Sink>(
        &mut self,
        env: &Env<'_, F>,
        sink: &mut S,
        ln: usize,
    ) {
        let n = self.node_base + ln;
        if F::ACTIVE && env.faults.node_dead(n) {
            return; // dead node: its injection channel carries nothing
        }
        let (cycle, vcs) = (env.cycle, self.vcs);
        let (r, p) = env.w.node_ports[n];
        let nb = ln * vcs;
        let mut v = self.node_lane_rr[ln] as usize;
        for _ in 0..vcs {
            let next = if v + 1 == vcs { 0 } else { v + 1 };
            let ready = (!MASKED || self.node_lane_occ[ln] & (1u64 << v) != 0)
                && self.node_credits[nb + v] > 0
                && matches!(self.node_lanes.front(nb + v), Some(f) if f.moved < cycle);
            if !ready {
                v = next;
                continue;
            }
            let mut f = self.node_lanes.pop(nb + v);
            if self.node_lanes.is_empty(nb + v) {
                self.node_lane_occ[ln] &= !(1u64 << v);
            }
            self.node_credits[nb + v] -= 1;
            self.node_lane_rr[ln] = next as u8;
            f.moved = cycle;
            *sink.moves() += 1;
            sink.injection_flit(cycle, &f, n, v);
            self.send(sink, r as usize, p as usize * vcs + v, f);
            break;
        }
    }

    /// A flit crosses a link into input lane `dll` of router `r2`.
    #[inline]
    fn send<S: Sink>(&mut self, sink: &mut S, r2: usize, dll: usize, f: Flit) {
        let lr2 = r2.wrapping_sub(self.router_base);
        if S::WHOLE || lr2 < self.num_routers() {
            self.arrive(lr2, dll, f);
        } else {
            sink.flit_out(r2, dll, f);
        }
    }

    /// Buffer an arriving flit on input lane `dll` of owned router
    /// `lr`, and wake the phases it enables. Each input lane has one
    /// upstream source, so at most one flit arrives per lane per cycle
    /// and arrivals commute.
    #[inline]
    pub(super) fn arrive(&mut self, lr: usize, dll: usize, f: Flit) {
        let dl = lr * self.lanes + dll;
        let was_empty = self.in_q.is_empty(dl);
        self.in_q.push(dl, f);
        self.in_occ[lr] |= 1u64 << dll;
        if was_empty && f.is_head() {
            debug_assert_eq!(self.in_route[dl], NO_ROUTE);
            self.pending[lr] |= 1u64 << dll;
            set_bit(self.route_words, lr);
        }
        if self.routed[lr] & (1u64 << dll) != 0 {
            // Body/tail arriving on a lane whose head holds a path.
            set_bit(self.xbar_words, lr);
        }
    }

    /// Phase 2: crossbar forwarding for the owned routers.
    pub(super) fn phase_xbar<const MASKED: bool, F: FaultModel, S: Sink>(
        &mut self,
        env: &Env<'_, F>,
        sink: &mut S,
    ) {
        for wi in 0..self.xbar_words.len() {
            let mut bits = members::<MASKED>(self.xbar_words[wi], wi, self.num_routers());
            while bits != 0 {
                let lr = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // Snapshot: lanes of this router cannot become
                // forwardable during the phase (routes are assigned in
                // the routing phase, arrivals happen in the link phase).
                let mut mask = if MASKED {
                    self.in_occ[lr] & self.routed[lr]
                } else {
                    u64::MAX >> (64 - self.lanes)
                };
                while mask != 0 {
                    let ll = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    if MASKED || self.in_route[lr * self.lanes + ll] != NO_ROUTE {
                        self.xbar_lane::<F, S>(env, sink, lr, ll);
                    }
                }
                if self.in_occ[lr] & self.routed[lr] == 0 {
                    clear_bit(self.xbar_words, lr);
                }
            }
        }
    }

    /// One input lane holding a crossbar path: forward a flit if the
    /// head is movable and the output lane has room, tear the path down
    /// behind a tail, and acknowledge the freed buffer upstream. A lane
    /// whose head-of-line packet the fault plane dropped (`DROP_ROUTE`)
    /// sinks the flit instead — the drain counts as movement, so a
    /// draining network never trips the watchdog.
    fn xbar_lane<F: FaultModel, S: Sink>(
        &mut self,
        env: &Env<'_, F>,
        sink: &mut S,
        lr: usize,
        ll: usize,
    ) {
        let cycle = env.cycle;
        let base = lr * self.lanes;
        let l = base + ll;
        let route = self.in_route[l];
        debug_assert_ne!(route, NO_ROUTE);
        let draining = F::ACTIVE && route == DROP_ROUTE;
        let route = route as usize;
        let movable = matches!(self.in_q.front(l), Some(f) if f.moved < cycle)
            && (draining || !self.out_q.is_full(base + route));
        if !movable {
            return;
        }
        let mut f = self.in_q.pop(l);
        if self.in_q.is_empty(l) {
            self.in_occ[lr] &= !(1u64 << ll);
        }
        *sink.moves() += 1;
        if draining {
            let c = sink.counters();
            c.in_flight_flits = c.in_flight_flits.wrapping_sub(1);
            c.dropped_flits += 1;
        } else {
            f.moved = cycle;
            self.out_q.push(base + route, f);
            self.out_occ[lr] |= 1u64 << route;
            set_bit(self.link_words, lr);
        }
        if f.is_tail() {
            self.in_route[l] = NO_ROUTE;
            self.routed[lr] &= !(1u64 << ll);
            if !draining {
                self.out_bound[lr] &= !(1u64 << route);
            }
            if matches!(self.in_q.front(l), Some(nf) if nf.is_head()) {
                self.pending[lr] |= 1u64 << ll;
                set_bit(self.route_words, lr);
            }
        }
        // Acknowledgment: one buffer freed in this input lane. Nothing
        // in the phase reads a credit count, so a deferred one (another
        // shard's) is unobservable.
        let (p, v) = (self.lane_port[ll] as usize, self.lane_vc[ll] as usize);
        match env.w.peer(self.router_base + lr, p) {
            Peer::Router { router, port } => {
                let ul = port as usize * self.vcs + v;
                let lr2 = (router as usize).wrapping_sub(self.router_base);
                if S::WHOLE || lr2 < self.num_routers() {
                    self.out_credits[lr2 * self.lanes + ul] += 1;
                    debug_assert!(
                        self.out_credits[lr2 * self.lanes + ul] as usize <= self.in_q.cap
                    );
                } else {
                    sink.credit_out(router as usize, ul);
                }
            }
            Peer::Node(nn) => {
                let ln = (nn as usize).wrapping_sub(self.node_base);
                if S::WHOLE || ln < self.num_nodes() {
                    self.node_credits[ln * self.vcs + v] += 1;
                    debug_assert!(self.node_credits[ln * self.vcs + v] as usize <= self.in_q.cap);
                } else {
                    sink.node_credit_out(nn as usize, v);
                }
            }
            Peer::None => unreachable!("flit arrived through an uncabled port"),
        }
    }

    /// The owned routers the routing phase visits, ascending: those on
    /// the routing worklist, or (unmasked) every one with a pending
    /// header. `f` may retire the router it is visiting.
    pub(super) fn for_each_routable<const MASKED: bool>(
        &mut self,
        mut f: impl FnMut(&mut Self, usize),
    ) {
        for wi in 0..self.route_words.len() {
            let mut bits = members::<MASKED>(self.route_words[wi], wi, self.num_routers());
            while bits != 0 {
                let lr = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if MASKED || self.pending[lr] != 0 {
                    f(self, lr);
                }
            }
        }
    }

    /// Routing phase, first half, one owned router with a pending
    /// header: scan the pending lanes in round-robin order for the
    /// first header visible this cycle and ask the routing function for
    /// its candidates. Reads pre-phase state of this router only, so
    /// routers prepare independently of each other — and of the
    /// selections applied to lower-numbered routers this cycle.
    pub(super) fn prepare_route<const MASKED: bool, A: RoutingAlgorithm + ?Sized, F: FaultModel>(
        &self,
        env: &Env<'_, F>,
        algo: &A,
        packets: &[PacketRec],
        lr: usize,
        cand: &mut CandidateSet,
    ) -> Option<Prepared> {
        let pending = self.pending[lr];
        debug_assert_ne!(pending, 0, "routing a router without a pending header");
        let start = self.route_rr[lr] as usize;
        debug_assert!(start < self.lanes);
        let r = self.router_base + lr;
        let mut try_lane = |ll: usize| -> Option<Prepared> {
            let front =
                *(self.in_q.front(lr * self.lanes + ll)).expect("pending lane must hold a flit");
            debug_assert!(front.is_head(), "pending lane front must be a header");
            if front.moved >= env.cycle {
                return None; // arrived this very cycle; visible from the next
            }
            let dest = packets[front.packet() as usize].dest;
            let in_port = self.lane_port[ll] as usize;
            algo.route(RouterId(r as u32), Some(in_port), NodeId(dest), cand);
            debug_assert!(!cand.is_empty(), "routing function returned no candidate");
            let unroutable = F::ACTIVE && fault_unroutable(env.faults, r, cand);
            let degraded = F::ACTIVE
                && !unroutable
                && (cand.preferred.iter().chain(&cand.fallback))
                    .any(|c| env.faults.channel_down(r, c.port as usize));
            Some(Prepared {
                lane: ll,
                packet: front.packet(),
                unroutable,
                degraded,
            })
        };
        if MASKED {
            // Set bits at and above the cursor, then the wrap-around.
            let below = (1u64 << start) - 1;
            for mut bits in [pending & !below, pending & below] {
                while bits != 0 {
                    let ll = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if let Some(d) = try_lane(ll) {
                        return Some(d);
                    }
                }
            }
            None
        } else {
            (0..self.lanes)
                .map(|i| (start + i) % self.lanes)
                .filter(|ll| pending & (1u64 << ll) != 0)
                .find_map(try_lane)
        }
    }
}

/// Fault-plane dead-end detection at routing time: whether a header at
/// router `r` with candidates `cand` can never be routed to completion.
///
/// * With a non-empty fallback (escape) class — the algorithms whose
///   deadlock freedom rests on the escape network — the packet is
///   unroutable as soon as **every escape direction is permanently
///   dead**: routing on only adaptive lanes would void the
///   deadlock-freedom argument, so escape-channel loss is reported as a
///   structured drop rather than risked as a hang.
/// * Without a fallback class (fat-tree ascent/descent, where every
///   candidate class is safe), only when every candidate direction is
///   dead.
///
/// Transiently-down channels never make a packet unroutable; they only
/// block it until the repair.
fn fault_unroutable<F: FaultModel>(faults: &F, r: usize, cand: &CandidateSet) -> bool {
    let dead = |c: &routing::Candidate| faults.channel_dead(r, c.port as usize);
    if !cand.fallback.is_empty() {
        cand.fallback.iter().all(dead)
    } else {
        cand.preferred.iter().all(dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(packet: u32) -> Flit {
        Flit::new(packet, 0, 0)
    }

    #[test]
    fn queue_bank_is_a_ring_per_lane() {
        let mut bank = QueueBank::new(3, 2);
        let offset = bank.offset;
        let mut q = bank.view();
        assert_eq!(
            q.slots.as_ptr() as usize % LINE,
            0,
            "lane 0 is line-aligned"
        );
        assert_eq!(q.slots.len(), 3 * 2 + 7 - offset);
        assert!(q.is_empty(1) && q.front(1).is_none());
        q.push(1, flit(7));
        q.push(1, flit(8));
        assert!(q.is_full(1) && q.free(1) == 0 && q.is_empty(0) && q.is_empty(2));
        assert_eq!(q.pop(1).packet(), 7);
        q.push(1, flit(9)); // wraps
        assert_eq!(bank.len(1), 2);
        assert_eq!(bank.iter(1).map(|f| f.packet()).collect::<Vec<_>>(), [8, 9]);
        assert_eq!(bank.total(), 2);
    }

    #[test]
    fn views_split_at_shard_boundaries() {
        let topo = topology::KAryNCube::new(16, 2); // 256 routers, 5 ports
        let w = Wiring::from_topology(&topo);
        let mut banks = SoaBanks::new(&w, 2, 4);
        banks.pending[64] = 1;
        banks.link_work.insert(130);
        let parts = banks.view().split(&[0, 64, 192, 256], &[0, 128, 128, 256]);
        assert_eq!(parts.len(), 3);
        assert_eq!(
            parts
                .iter()
                .map(|v| (v.router_base, v.num_routers()))
                .collect::<Vec<_>>(),
            [(0, 64), (64, 128), (192, 64)]
        );
        assert_eq!(
            parts
                .iter()
                .map(|v| (v.node_base, v.num_nodes()))
                .collect::<Vec<_>>(),
            [(0, 128), (128, 0), (128, 128)]
        );
        assert_eq!(parts[1].pending[0], 1);
        assert_eq!(parts[1].link_words, [0, 1 << 2]);
        assert_eq!(parts[1].in_route.len(), 128 * 10);
        assert_eq!(parts[2].link_flits.len(), 64 * 5);
    }

    #[test]
    fn members_cover_exactly_the_valid_ids() {
        assert_eq!(members::<true>(0b101, 0, 3), 0b101);
        assert_eq!(members::<false>(0, 0, 3), 0b111);
        assert_eq!(members::<false>(0, 0, 64), u64::MAX);
        assert_eq!(members::<false>(0, 1, 70), 0b11_1111);
    }
}
