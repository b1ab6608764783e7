//! The cycle-driven wormhole engine.
//!
//! Each simulated clock executes four phases, in an order chosen so that
//! a flit advances at most one pipeline stage per cycle (additionally
//! enforced by the per-flit `moved` stamp):
//!
//! 1. **Link** — for every physical channel direction a fair round-robin
//!    arbiter picks one output lane with a ready flit and a credit and
//!    moves the flit into the peer's input lane (`T_link`). Ejection
//!    channels (router → node) work the same way but sink into the node,
//!    and injection channels (node → router) drain the node-side lanes.
//! 2. **Crossbar** — every input lane whose head-of-line packet owns a
//!    crossbar path forwards one flit to its output lane if space allows
//!    (`T_crossbar`); an acknowledgment immediately restores one credit
//!    upstream. A tail flit tears the path down.
//! 3. **Routing** — at most one header per router is routed per cycle
//!    (`T_routing`): the routing function produces the admissible lanes
//!    and the selection policy picks the least-loaded link (most free
//!    virtual channels, fair random tie-break), falling back to the
//!    escape class only when no preferred lane is allocatable.
//! 4. **Injection** — each node runs its packet-creation process, starts
//!    at most one packet at a time into the single injection channel
//!    (source throttling) and streams one flit per cycle into the chosen
//!    injection lane.
//!
//! # One lane store, one kernel
//!
//! All lane state — queues, credits, occupancy masks, arbiter cursors,
//! the phase worklists — lives in the flat struct-of-arrays banks of
//! `soa`, and every phase handler is written once over them. The
//! per-cycle cost is proportional to *active* work, not network size:
//! each phase walks a bitset worklist of only the routers (or nodes)
//! that can act this cycle, and each router's lanes through `u64`
//! occupancy masks with `trailing_zeros`. The engine is monomorphized
//! over the routing algorithm (the per-header `route` call inlines),
//! the telemetry [`Probe`] and the [`FaultModel`], so the untraced
//! healthy run pays for neither.
//!
//! How a run is executed varies along three independent axes, none of
//! which can change a result — counters, packet table, RNG consumption
//! order, probe event stream and state hash are bit-identical across
//! all of them (`tests/engine_equivalence.rs`):
//!
//! * **Schedule** — *every cycle* ([`Engine::run`]) ticks every node's
//!   creation process each cycle; the *wheel* ([`Engine::run_wheel`],
//!   module [`wheel`]; what `netperf` runs) files future firings in a
//!   calendar queue, visits only firing and backlogged nodes, and
//!   fast-forwards over cycles in which nothing can happen.
//! * **Partition** — *serial*, or *sharded* (`*_sharded`, module
//!   [`shard`]): the same handlers over one slice of the banks per
//!   shard, with barriers applying what crosses shard boundaries.
//! * **Scan** — the worklist/mask walk, or the `reference` audit
//!   ([`Engine::run_reference`], feature `reference-engine`): the same
//!   handlers with `MASKED = false`, visiting every router, port and
//!   lane and inspecting the queues directly — an error in the mask or
//!   worklist bookkeeping makes the two diverge.
//!
//! A watchdog reports a [`Stall`] if flits are in flight but nothing
//! has moved for a long time — with the deadlock-free routing functions
//! of the `routing` crate this must never fire, and the integration
//! tests rely on it as a runtime deadlock detector.
#![deny(missing_docs)]

pub mod shard;
pub mod snapshot;
mod soa;
pub mod wheel;

use crate::active::{clear_bit, set_bit};
use crate::fault::{FaultModel, LinkFlip, NoFaults};
use crate::flit::{Flit, PacketRec, HEAD, MAX_PACKET, NEVER, TAIL};
use crate::wiring::{Peer, Wiring};
use routing::{CandidateSet, RoutingAlgorithm};
use shard::ShardPlan;
use soa::{Direct, Env, Lanes, Prepared, SoaBanks};
use std::collections::VecDeque;
use telemetry::{NullProbe, Probe};
use topology::NodeId;
use traffic::{InjectionProcess, Rng64, TrafficGen};

/// Sentinel for "no route assigned" (routes are lane indices below 64,
/// so a byte holds them and both sentinels).
const NO_ROUTE: u8 = u8::MAX;

/// Sentinel route for a lane whose head-of-line packet was declared
/// undeliverable by the fault plane: the crossbar phase drains such a
/// lane (one flit per cycle, credits returned upstream) instead of
/// forwarding it. Distinct from `NO_ROUTE`, so the `routed` mask
/// invariant (`routed` bit ⟺ `in_route[l] != NO_ROUTE`) still holds.
const DROP_ROUTE: u8 = u8::MAX - 1;

/// How many consecutive all-idle cycles (with flits in flight) before
/// the watchdog declares a deadlock. Generous: a legal configuration can
/// stall for at most a few round-trips of credit propagation.
const WATCHDOG_CYCLES: u32 = 50_000;

/// The id of the next packet when `created` packets exist, or `None`
/// once it would not fit a flit's packet field (ids are table indices).
fn next_packet_id(created: usize) -> Option<u32> {
    u32::try_from(created).ok().filter(|&id| id <= MAX_PACKET)
}

/// The source side of one node (its injection lanes are in the banks).
struct NodeState {
    /// Unbounded source queue of created packets (ids).
    src_queue: VecDeque<u32>,
    /// Packet currently streaming into the network: (id, flits left).
    active: Option<(u32, u16)>,
    /// Injection lane of the active packet.
    active_lane: u8,
    /// Per-node random stream (destinations + injection process).
    rng: Rng64,
    /// Packet creation process.
    proc: Box<dyn InjectionProcess>,
}

/// Aggregate counters updated as the simulation runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Total flits delivered to nodes.
    pub delivered_flits: u64,
    /// Total packets delivered (tail received).
    pub delivered_packets: u64,
    /// Total packets created at the sources.
    pub created_packets: u64,
    /// Flits currently inside the network (injection lanes included).
    pub in_flight_flits: u64,
    /// Total headers routed.
    pub routed_headers: u64,
    /// Routing attempts that found no available lane.
    pub routing_blocked: u64,
    /// Headers that had to take an escape (fallback) lane.
    pub escape_routings: u64,
    /// Total flit movements executed (link + crossbar + injection
    /// pushes) — the engine-throughput unit of the benchmark harness.
    pub flit_moves: u64,
    /// Packets abandoned in-network by the fault plane (every
    /// admissible direction permanently dead); their flits are drained.
    pub dropped_packets: u64,
    /// Flits drained from dropped packets.
    pub dropped_flits: u64,
    /// Packets abandoned at the source because their source or
    /// destination node is dead (never injected).
    pub unroutable_packets: u64,
}

/// The flit-level simulation engine for one network + routing algorithm.
///
/// Generic over the routing algorithm so concrete instantiations
/// (`Engine<'_, CubeDuato>` etc.) inline the per-header route call; the
/// default parameter keeps the boxed form `Engine<'_>`
/// (= `Engine<'_, dyn RoutingAlgorithm>`) available.
///
/// Also generic over the telemetry [`Probe`] observing the run. The
/// default [`NullProbe`] monomorphizes every observation call to an
/// inlined empty body, so an untraced engine pays nothing for the
/// telemetry plane (pinned by `bench_engine`); [`Engine::with_probe`]
/// attaches a recording probe such as `telemetry::FlightRecorder`.
///
/// Finally, generic over the [`FaultModel`] degrading the network. The
/// default [`NoFaults`] has `ACTIVE = false`, so every fault check
/// (each written `F::ACTIVE && …`) constant-folds away;
/// [`Engine::with_probe_and_faults`] attaches a compiled
/// [`crate::fault::FaultState`].
pub struct Engine<
    'a,
    A: RoutingAlgorithm + ?Sized = dyn RoutingAlgorithm,
    P: Probe = NullProbe,
    F: FaultModel = NoFaults,
> {
    algo: &'a A,
    w: Wiring,
    vcs: usize,
    lanes_per_router: usize,
    flits_per_packet: u16,
    pattern: TrafficGen,
    /// Every lane of the network (taken out for the duration of a
    /// cycle, see [`Engine::cycle_serial`]).
    banks: SoaBanks,
    /// Per router: bitmask of output lanes on ports cabled to another
    /// router (used by the limited-injection throttle).
    network_lanes: Vec<u64>,
    nodes: Vec<NodeState>,
    packets: Vec<PacketRec>,
    cycle: u32,
    idle_cycles: u32,
    moves_this_cycle: u64,
    counters: Counters,
    cand: CandidateSet,
    rng: Rng64,
    /// Limited injection (source throttling, after Petrini & Vanneschi's
    /// Supercomputing'96 scheme referenced by the paper): a node may
    /// start a new packet only while fewer than this many network output
    /// lanes of its local router are allocated to packets. `None`
    /// disables the throttle.
    injection_limit: Option<u32>,
    /// Request-reply mode: every delivered request causes the receiving
    /// node to enqueue a same-size reply to the sender (models the
    /// shared-memory read traffic of the machines in the paper's
    /// introduction). Replies are not answered again.
    request_reply: bool,
    /// Requests delivered this cycle awaiting reply creation
    /// (request-reply mode); drained at the end of the link phase.
    reply_buf: Vec<u32>,
    /// Telemetry observer ([`NullProbe`] = zero-cost no-op).
    probe: P,
    /// Fault model ([`NoFaults`] = zero-cost no-op).
    faults: F,
    /// Scratch buffer for per-cycle fault transitions (reused).
    fault_flips: Vec<LinkFlip>,
    /// Stall captured by the watchdog.
    stall: Option<Stall>,
    /// Cycle at which a packet could not be created because every id
    /// a flit can carry was taken (see [`Engine::packet_ids_exhausted`]).
    ids_exhausted: Option<u32>,
    /// The calendar queue of the wheel schedule (see [`wheel`]),
    /// mounted while the engine runs on it. The nodes' `rng`/`proc`
    /// state is scanned ahead of the clock while it is;
    /// [`Engine::to_aos`] replays it away.
    wheel: Option<Box<wheel::WheelState>>,
}

/// A watchdog trip: flits were in flight but nothing moved for the
/// watchdog horizon — the network is deadlocked (or a fault
/// configuration wedged it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stall {
    /// Cycle at which the watchdog gave up.
    pub cycle: u32,
    /// Flits stuck in the network.
    pub in_flight_flits: u64,
    /// Consecutive cycles without a single flit movement.
    pub idle_cycles: u32,
}

impl std::fmt::Display for Stall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deadlock watchdog: {} flits in flight, nothing moved for {} cycles (cycle {})",
            self.in_flight_flits, self.idle_cycles, self.cycle
        )
    }
}

impl<'a, A: RoutingAlgorithm + ?Sized> Engine<'a, A> {
    /// Build an engine.
    ///
    /// * `buf` — lane depth in flits (4 in the paper).
    /// * `flits_per_packet` — 16 (cube) or 32 (tree) for 64-byte packets.
    /// * `pattern` — destination pattern bound to this network size.
    /// * `make_proc` — factory for the per-node packet creation process.
    /// * `seed` — master seed; every node derives an independent stream.
    pub fn new(
        algo: &'a A,
        buf: usize,
        flits_per_packet: u16,
        pattern: TrafficGen,
        make_proc: &dyn Fn(usize) -> Box<dyn InjectionProcess>,
        seed: u64,
    ) -> Self {
        Engine::with_probe(
            algo,
            buf,
            flits_per_packet,
            pattern,
            make_proc,
            seed,
            NullProbe,
        )
    }
}

impl<'a, A: RoutingAlgorithm + ?Sized, P: Probe> Engine<'a, A, P> {
    /// Build an engine observed by `probe` (see [`Engine::new`] for the
    /// other parameters). The engine is monomorphized over the probe
    /// type; retrieve a recording probe afterwards with
    /// [`Engine::into_probe`].
    pub fn with_probe(
        algo: &'a A,
        buf: usize,
        flits_per_packet: u16,
        pattern: TrafficGen,
        make_proc: &dyn Fn(usize) -> Box<dyn InjectionProcess>,
        seed: u64,
        probe: P,
    ) -> Self {
        Engine::with_probe_and_faults(
            algo,
            buf,
            flits_per_packet,
            pattern,
            make_proc,
            seed,
            probe,
            NoFaults,
        )
    }
}

impl<'a, A: RoutingAlgorithm + ?Sized, P: Probe, F: FaultModel> Engine<'a, A, P, F> {
    /// Build an engine observed by `probe` and degraded by `faults`
    /// (see [`Engine::new`] for the other parameters). Pass a compiled
    /// [`crate::fault::FaultState`]; the [`NoFaults`] default of the
    /// other constructors compiles every fault check out.
    #[allow(clippy::too_many_arguments)]
    pub fn with_probe_and_faults(
        algo: &'a A,
        buf: usize,
        flits_per_packet: u16,
        pattern: TrafficGen,
        make_proc: &dyn Fn(usize) -> Box<dyn InjectionProcess>,
        seed: u64,
        probe: P,
        faults: F,
    ) -> Self {
        let w = Wiring::from_topology(algo.topology());
        let vcs = algo.num_vcs();
        assert_eq!(
            pattern.num_nodes(),
            w.num_nodes,
            "pattern bound to wrong network size"
        );
        assert!(flits_per_packet >= 1);

        let banks = SoaBanks::new(&w, vcs, buf);
        let network_lanes = (0..w.num_routers)
            .map(|r| {
                (0..w.ports)
                    .filter(|&p| matches!(w.peer(r, p), Peer::Router { .. }))
                    .fold(0u64, |m, p| m | ((1u64 << vcs) - 1) << (p * vcs))
            })
            .collect();
        let master = Rng64::seed_from(seed);
        let nodes = (0..w.num_nodes)
            .map(|n| NodeState {
                src_queue: VecDeque::new(),
                active: None,
                active_lane: 0,
                rng: master.derive(n as u64 + 1),
                proc: make_proc(n),
            })
            .collect();
        Engine {
            algo,
            vcs,
            lanes_per_router: w.ports * vcs,
            w,
            flits_per_packet,
            pattern,
            banks,
            network_lanes,
            nodes,
            packets: Vec::new(),
            cycle: 0,
            idle_cycles: 0,
            moves_this_cycle: 0,
            counters: Counters::default(),
            cand: CandidateSet::default(),
            rng: master.derive(0),
            injection_limit: None,
            request_reply: false,
            reply_buf: Vec::new(),
            probe,
            faults,
            fault_flips: Vec::new(),
            stall: None,
            ids_exhausted: None,
            wheel: None,
        }
    }

    /// Shared access to the attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consume the engine, returning the attached probe (e.g. a
    /// `telemetry::FlightRecorder` holding the recording).
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Enable limited injection: a node may start streaming a new packet
    /// only while fewer than `max_busy_lanes` of its local router's
    /// network output lanes are allocated. This is the stabilization
    /// mechanism of the paper's reference \[28\] ("Minimal Adaptive
    /// Routing with Limited Injection on Toroidal k-ary n-cubes") that
    /// keeps the accepted bandwidth flat above saturation.
    pub fn set_injection_limit(&mut self, max_busy_lanes: Option<u32>) {
        self.injection_limit = max_busy_lanes;
    }

    /// Enable request-reply mode: each delivered request makes the
    /// receiving node generate one reply packet of the same size back
    /// to the requester (through its normal source queue and injection
    /// channel). Replies are terminal — they do not trigger further
    /// messages — so the message-dependency chain is bounded and,
    /// because nodes sink arriving flits unconditionally, no
    /// protocol-level deadlock can arise.
    pub fn set_request_reply(&mut self, enabled: bool) {
        self.request_reply = enabled;
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u32 {
        self.cycle
    }

    /// Aggregate counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// The packet table (records for every created packet).
    pub fn packets(&self) -> &[PacketRec] {
        &self.packets
    }

    /// Total packets waiting in all source queues right now.
    pub fn source_queue_len(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.src_queue.len() + usize::from(n.active.is_some()))
            .sum()
    }

    /// The stall captured by the watchdog, if any.
    pub fn stall(&self) -> Option<Stall> {
        self.stall
    }

    /// The cycle at which the run ran out of packet ids, if it did: a
    /// flit carries at most [`MAX_PACKET`]` + 1` distinct ids, and a
    /// packet that would need another is not created. The run methods
    /// stop at the end of that cycle (`sim` reports it as
    /// `SimError::PacketIdsExhausted`; the unchecked ones panic).
    pub fn packet_ids_exhausted(&self) -> Option<u32> {
        self.ids_exhausted
    }

    // -----------------------------------------------------------------
    // Running: schedule × partition × scan.
    // -----------------------------------------------------------------

    /// Advance by `cycles` clocks on the chosen schedule, `cycle`
    /// executing one clock. A watchdog trip ends the run with the
    /// [`Stall`] as a structured error; running out of packet ids ends
    /// it early (see [`Engine::packet_ids_exhausted`]).
    ///
    /// # Panics
    /// Panics if the cycle counter would overflow (`sim` reports that
    /// case as `SimError::CycleOverflow` before it gets here).
    fn drive(
        &mut self,
        cycles: u32,
        wheel: bool,
        mut cycle: impl FnMut(&mut Self),
    ) -> Result<(), Stall> {
        let target = (self.cycle.checked_add(cycles)).expect("cycle counter overflow");
        if wheel {
            self.mount_wheel();
        } else {
            self.to_aos();
        }
        while self.cycle < target {
            if wheel {
                // Skipped cycles count against the budget, exactly as
                // if they had been stepped.
                self.wheel_skip_idle(target);
                if self.cycle >= target {
                    break;
                }
            }
            cycle(self);
            if let Some(s) = self.stall {
                return Err(s);
            }
            if self.ids_exhausted.is_some() {
                break;
            }
        }
        Ok(())
    }

    /// The unchecked run methods treat a watchdog trip, and running out
    /// of packet ids, as bugs.
    fn or_panic(&self, run: Result<(), Stall>) {
        if let Err(s) = run {
            panic!("{s} (algorithm {})", self.algo.name());
        }
        if let Some(cycle) = self.ids_exhausted {
            panic!("packet ids exhausted at cycle {cycle}");
        }
    }

    /// Advance by `cycles` clocks on the every-cycle schedule. Exact
    /// for any [`InjectionProcess`], including ones without a faithful
    /// `state_word` (which the wheel schedule needs).
    pub fn run_checked(&mut self, cycles: u32) -> Result<(), Stall> {
        self.drive(cycles, false, |e| e.cycle_serial::<true>(false))
    }

    /// [`Engine::run_checked`] under its historical name (the lane
    /// banks it once selected are the engine's only store now).
    pub fn run_checked_soa(&mut self, cycles: u32) -> Result<(), Stall> {
        self.run_checked(cycles)
    }

    /// Advance by `cycles` clocks on the wheel schedule (see [`wheel`]).
    pub fn run_checked_wheel(&mut self, cycles: u32) -> Result<(), Stall> {
        self.drive(cycles, true, |e| e.cycle_serial::<true>(true))
    }

    /// [`Engine::run_checked`], sharded along `plan` (see [`shard`]).
    pub fn run_checked_sharded(&mut self, cycles: u32, plan: &mut ShardPlan) -> Result<(), Stall>
    where
        F: Sync,
    {
        self.drive(cycles, false, |e| e.cycle_sharded::<true>(plan, false))
    }

    /// [`Engine::run_checked_wheel`], sharded along `plan`.
    pub fn run_checked_wheel_sharded(
        &mut self,
        cycles: u32,
        plan: &mut ShardPlan,
    ) -> Result<(), Stall>
    where
        F: Sync,
    {
        self.drive(cycles, true, |e| e.cycle_sharded::<true>(plan, true))
    }

    /// Advance by `cycles` clocks with the `reference` audit: the
    /// every-cycle schedule with every mask- and worklist-based
    /// early-out compiled out of the handlers (`MASKED = false`), so
    /// each router, port and lane is visited every cycle and judged by
    /// its queues alone — like the pre-optimization engine. The masks
    /// and worklists are still *maintained*, which is what makes the
    /// audit an oracle for them: it runs free of their errors, the
    /// masked kernel does not, and the two are compared bit for bit.
    #[cfg(any(test, feature = "reference-engine"))]
    pub fn run_checked_reference(&mut self, cycles: u32) -> Result<(), Stall> {
        self.drive(cycles, false, |e| e.cycle_serial::<false>(false))
    }

    /// [`Engine::run_checked_reference`], sharded along `plan`.
    #[cfg(any(test, feature = "reference-engine"))]
    pub fn run_checked_reference_sharded(
        &mut self,
        cycles: u32,
        plan: &mut ShardPlan,
    ) -> Result<(), Stall>
    where
        F: Sync,
    {
        self.drive(cycles, false, |e| e.cycle_sharded::<false>(plan, false))
    }

    /// [`Engine::run_checked`], panicking on a watchdog trip.
    pub fn run(&mut self, cycles: u32) {
        let run = self.run_checked(cycles);
        self.or_panic(run);
    }

    /// Execute one clock cycle ([`Engine::run`] for one cycle).
    pub fn step(&mut self) {
        self.run(1);
    }

    /// [`Engine::run_checked_wheel`], panicking on a watchdog trip.
    pub fn run_wheel(&mut self, cycles: u32) {
        let run = self.run_checked_wheel(cycles);
        self.or_panic(run);
    }

    /// [`Engine::run_checked_wheel_sharded`], panicking on a watchdog
    /// trip.
    pub fn run_wheel_sharded(&mut self, cycles: u32, plan: &mut ShardPlan)
    where
        F: Sync,
    {
        let run = self.run_checked_wheel_sharded(cycles, plan);
        self.or_panic(run);
    }

    /// [`Engine::run_checked_reference`], panicking on a watchdog trip.
    #[cfg(any(test, feature = "reference-engine"))]
    pub fn run_reference(&mut self, cycles: u32) {
        let run = self.run_checked_reference(cycles);
        self.or_panic(run);
    }

    /// The read-only surroundings of the link and crossbar phases.
    fn env(&self) -> Env<'_, F> {
        Env {
            w: &self.w,
            faults: &self.faults,
            cycle: self.cycle,
        }
    }

    /// [`Engine::env`] plus the serial run's effect sink.
    fn direct(&mut self) -> (Env<'_, F>, Direct<'_, P>) {
        let env = Env {
            w: &self.w,
            faults: &self.faults,
            cycle: self.cycle,
        };
        let sink = Direct {
            probe: &mut self.probe,
            counters: &mut self.counters,
            moves: &mut self.moves_this_cycle,
            packets: &mut self.packets,
            reply_buf: &mut self.reply_buf,
            request_reply: self.request_reply,
        };
        (env, sink)
    }

    /// One clock cycle, serial. The banks are moved out of `self` for
    /// the duration so the kernel's view of them and `&mut self` (the
    /// serial residue: replies, selection, injection) can coexist.
    fn cycle_serial<const MASKED: bool>(&mut self, wheel: bool) {
        let mut banks = std::mem::take(&mut self.banks);
        let mut v = banks.view();
        self.begin_cycle();
        let (env, mut sink) = self.direct();
        v.phase_link::<MASKED, F, _>(&env, &mut sink);
        self.spawn_replies();
        let (env, mut sink) = self.direct();
        v.phase_xbar::<MASKED, F, _>(&env, &mut sink);
        let mut cand = std::mem::take(&mut self.cand);
        v.for_each_routable::<MASKED>(|v, r| {
            let (env, algo, packets) = (self.env(), self.algo, &self.packets);
            let prepared = v.prepare_route::<MASKED, A, F>(&env, algo, packets, r, &mut cand);
            if let Some(d) = prepared {
                self.apply_route(v, r, &d, &cand);
            }
        });
        self.cand = cand;
        self.phase_injection(&mut v, wheel);
        self.banks = banks;
        self.end_cycle();
    }

    /// One clock cycle, sharded along `plan` (`shards <= 1` *is* the
    /// serial cycle).
    fn cycle_sharded<const MASKED: bool>(&mut self, plan: &mut ShardPlan, wheel: bool)
    where
        F: Sync,
    {
        if plan.shards() <= 1 {
            return self.cycle_serial::<MASKED>(wheel);
        }
        let mut banks = std::mem::take(&mut self.banks);
        self.begin_cycle();
        self.sharded_phases::<MASKED>(&mut banks, plan);
        self.phase_injection(&mut banks.view(), wheel);
        self.banks = banks;
        self.end_cycle();
    }

    /// Reset the per-cycle movement count and apply this cycle's
    /// transient fault transitions, reporting them to the probe.
    fn begin_cycle(&mut self) {
        self.moves_this_cycle = 0;
        if F::ACTIVE {
            let mut flips = std::mem::take(&mut self.fault_flips);
            self.faults.begin_cycle(self.cycle, &mut flips);
            for fl in flips.drain(..) {
                self.probe
                    .fault_transition(self.cycle, fl.router, fl.port, fl.down);
            }
            self.fault_flips = flips; // return the allocation
        }
    }

    /// Watchdog bookkeeping and the clock tick.
    fn end_cycle(&mut self) {
        self.probe.cycle_end(self.cycle);
        self.counters.flit_moves += self.moves_this_cycle;
        if self.moves_this_cycle == 0 && self.counters.in_flight_flits > 0 {
            self.idle_cycles += 1;
            if self.idle_cycles >= WATCHDOG_CYCLES {
                // Reset the horizon so a caller that keeps stepping
                // anyway is not re-tripped every cycle.
                self.stall = Some(Stall {
                    cycle: self.cycle,
                    in_flight_flits: self.counters.in_flight_flits,
                    idle_cycles: self.idle_cycles,
                });
                self.idle_cycles = 0;
            }
        } else {
            self.idle_cycles = 0;
        }
        self.cycle += 1;
    }

    // -----------------------------------------------------------------
    // The serial residue: what consumes the shared RNG, assigns packet
    // ids or emits per-packet probe events in a global order.
    // -----------------------------------------------------------------

    /// Request-reply mode: delivered requests spawn replies at the
    /// receiving node (entering its normal source queue, so they share
    /// the single injection channel with that node's own traffic).
    fn spawn_replies(&mut self) {
        if self.reply_buf.is_empty() {
            return;
        }
        let cycle = self.cycle;
        let mut buf = std::mem::take(&mut self.reply_buf);
        for req in buf.drain(..) {
            let rec = self.packets[req as usize];
            let Some(id) = self.create_packet(rec.dest, rec.src, rec.flits, req) else {
                continue;
            };
            self.nodes[rec.dest as usize].src_queue.push_back(id);
            if let Some(w) = self.wheel.as_mut() {
                // The wheel's injection phase must visit the node.
                w.backlog.insert(rec.dest as usize);
            }
            self.counters.created_packets += 1;
            self.probe
                .packet_created(cycle, id, rec.dest, rec.src, rec.flits);
        }
        self.reply_buf = buf; // return the allocation
    }

    /// Append a packet created this cycle to the packet table and
    /// return its id — or, once every id a flit can carry is taken,
    /// create nothing and record the exhaustion, which ends the run at
    /// the end of this cycle.
    fn create_packet(&mut self, src: u32, dest: u32, flits: u16, in_reply_to: u32) -> Option<u32> {
        let Some(id) = next_packet_id(self.packets.len()) else {
            self.ids_exhausted.get_or_insert(self.cycle);
            return None;
        };
        self.packets.push(PacketRec {
            src,
            dest,
            created: self.cycle,
            injected: NEVER,
            delivered: NEVER,
            flits,
            hops: 0,
            in_reply_to,
        });
        Some(id)
    }

    /// Routing phase, second half, for the header router `r` prepared
    /// as `d` with candidates `cand`: run the selection policy (or
    /// start the drop of an unroutable packet) and record the outcome.
    /// One routing decision per router per cycle, successful or not;
    /// the round-robin cursor advances for fairness either way.
    fn apply_route(&mut self, v: &mut Lanes<'_>, r: usize, d: &Prepared, cand: &CandidateSet) {
        let cycle = self.cycle;
        let lanes = self.lanes_per_router;
        let (ll, l) = (d.lane, r * lanes + d.lane);
        let route = if d.unroutable {
            // Degraded-mode dead end: mark the lane so the crossbar
            // phase drains it, and count the packet.
            self.counters.dropped_packets += 1;
            self.probe.packet_dropped(cycle, d.packet, r as u32);
            Some(DROP_ROUTE)
        } else if let Some((ol, used_fallback)) = self.select_output(v, r, cand) {
            v.out_bound[r] |= 1u64 << ol;
            self.counters.routed_headers += 1;
            self.packets[d.packet as usize].hops += 1;
            if used_fallback {
                self.counters.escape_routings += 1;
            }
            self.probe.header_routed(
                cycle,
                d.packet,
                r as u32,
                ll as u16,
                ol as u16,
                used_fallback,
            );
            if d.degraded {
                // Some candidate direction is down, so whatever lane
                // won is a detour.
                self.probe
                    .header_rerouted(cycle, d.packet, r as u32, ol as u16);
            }
            Some(ol as u8)
        } else {
            self.counters.routing_blocked += 1;
            self.probe
                .routing_blocked(cycle, d.packet, r as u32, ll as u16);
            None
        };
        if let Some(route) = route {
            v.in_route[l] = route;
            v.routed[r] |= 1u64 << ll;
            v.pending[r] &= !(1u64 << ll);
            // The header is at the front and has not moved this cycle,
            // so the lane is forwardable.
            debug_assert_ne!(v.in_occ[r] & (1u64 << ll), 0);
            set_bit(v.xbar_words, r);
            if v.pending[r] == 0 {
                clear_bit(v.route_words, r);
            }
        }
        v.route_rr[r] = ((ll + 1) % lanes) as u32;
    }

    /// The selection policy: among admissible preferred lanes pick the
    /// port with the most free virtual channels (fair random tie-break),
    /// then the lane with the most headroom on that port; fall back to
    /// the first admissible escape lane. Returns the chosen output-lane
    /// index and whether the fallback class was used. Lanes on
    /// currently-down channels (fault plane) are never admissible.
    fn select_output(
        &mut self,
        v: &Lanes<'_>,
        r: usize,
        cand: &CandidateSet,
    ) -> Option<(usize, bool)> {
        let vcs = self.vcs;
        let base = r * self.lanes_per_router;
        let out_bound = v.out_bound[r];
        let faults = &self.faults;
        let admissible = |lane: usize| {
            out_bound & (1u64 << lane) == 0
                && !v.out_q.is_full(base + lane)
                && !(F::ACTIVE && faults.channel_down(r, lane / vcs))
        };

        // Pass 1: best port among preferred candidates.
        let mut best_port: Option<usize> = None;
        let mut best_score = 0usize;
        let mut ties = 0u64;
        let mut last_port = usize::MAX;
        for c in &cand.preferred {
            let port = c.port as usize;
            if port == last_port {
                continue; // candidates are grouped by port
            }
            last_port = port;
            let has_admissible = (0..vcs).any(|v| {
                cand.preferred
                    .iter()
                    .any(|cc| cc.port as usize == port && cc.vc as usize == v)
                    && admissible(port * vcs + v)
            });
            if !has_admissible {
                continue;
            }
            let port_mask = ((1u64 << vcs) - 1) << (port * vcs);
            let free_vcs = vcs - (out_bound & port_mask).count_ones() as usize;
            if best_port.is_none() || free_vcs > best_score {
                best_port = Some(port);
                best_score = free_vcs;
                ties = 1;
            } else if free_vcs == best_score {
                // Reservoir sampling for a fair tie-break.
                ties += 1;
                if self.rng.below(ties) == 0 {
                    best_port = Some(port);
                }
            }
        }

        if let Some(port) = best_port {
            // Pass 2: best lane on the chosen port.
            let mut best_lane = None;
            let mut best_headroom = 0usize;
            for c in &cand.preferred {
                if c.port as usize != port {
                    continue;
                }
                let lane = port * vcs + c.vc as usize;
                if !admissible(lane) {
                    continue;
                }
                let headroom = v.out_credits[base + lane] as usize + v.out_q.free(base + lane);
                if best_lane.is_none() || headroom > best_headroom {
                    best_lane = Some(lane);
                    best_headroom = headroom;
                }
            }
            return best_lane.map(|l| (l, false));
        }

        // Fallback (escape) class, in the order the algorithm listed.
        for c in &cand.fallback {
            let lane = c.port as usize * vcs + c.vc as usize;
            if admissible(lane) {
                return Some((lane, true));
            }
        }
        None
    }

    /// Phase 4: on the wheel schedule visit the firing and backlogged
    /// nodes; on the every-cycle schedule tick every node's creation
    /// process (inherently O(nodes)) and run the injection body on it.
    fn phase_injection(&mut self, v: &mut Lanes<'_>, wheel: bool) {
        if wheel {
            return self.wheel_phase_injection(v);
        }
        for n in 0..self.w.num_nodes {
            let ns = &mut self.nodes[n];
            let created = if ns.proc.tick(&mut ns.rng) {
                self.pattern
                    .dest(NodeId(n as u32), &mut ns.rng)
                    .map(|d| d.0)
            } else {
                None
            };
            self.inject_node(v, n, created);
        }
    }

    /// The per-node injection body: packet creation (when the caller's
    /// tick drew `created` as a destination), the fault-plane source
    /// purge, throttled packet start, and streaming one flit of the
    /// active packet.
    fn inject_node(&mut self, v: &mut Lanes<'_>, n: usize, created: Option<u32>) {
        let cycle = self.cycle;
        let flits = self.flits_per_packet;
        if let Some(dest) = created {
            if let Some(id) = self.create_packet(n as u32, dest, flits, u32::MAX) {
                self.nodes[n].src_queue.push_back(id);
                self.counters.created_packets += 1;
                self.probe.packet_created(cycle, id, n as u32, dest, flits);
            }
        }
        let ns = &mut self.nodes[n];

        // Fault plane: a packet whose source or destination node is
        // dead can never be delivered — abandon it at the source
        // (counted unroutable, never injected). Dead endpoints are
        // known at cycle 0, so the source queue never wedges behind
        // a doomed head.
        if F::ACTIVE {
            while let Some(&pkt) = ns.src_queue.front() {
                let dest = self.packets[pkt as usize].dest as usize;
                if !self.faults.node_dead(n) && !self.faults.node_dead(dest) {
                    break;
                }
                ns.src_queue.pop_front();
                self.counters.unroutable_packets += 1;
                self.probe.packet_unroutable(cycle, pkt, n as u32);
            }
        }

        // Start the next packet (single injection channel: one
        // packet streams at a time; limited injection may hold it
        // back while the local router is congested).
        let vcs = self.vcs;
        let nb = n * vcs;
        if ns.active.is_none() {
            let throttled = self.injection_limit.is_some_and(|limit| {
                let r = self.w.node_ports[n].0 as usize;
                (v.out_bound[r] & self.network_lanes[r]).count_ones() >= limit
            });
            if let (false, Some(&pkt)) = (throttled, ns.src_queue.front()) {
                // Choose the lane with the most headroom; rotate on
                // ties for fairness.
                let start = v.node_lane_rr[n] as usize;
                let mut best: Option<(usize, usize)> = None;
                for lane in (start..vcs).chain(0..start) {
                    if !v.node_lanes.is_full(nb + lane) {
                        let headroom =
                            v.node_lanes.free(nb + lane) + v.node_credits[nb + lane] as usize;
                        if best.is_none_or(|(_, h)| headroom > h) {
                            best = Some((lane, headroom));
                        }
                    }
                }
                if let Some((lane, _)) = best {
                    ns.src_queue.pop_front();
                    ns.active = Some((pkt, flits));
                    ns.active_lane = lane as u8;
                }
            }
        }

        // Stream one flit of the active packet.
        if let Some((pkt, remaining)) = ns.active {
            let lane = ns.active_lane as usize;
            if !v.node_lanes.is_full(nb + lane) {
                let mut flags = 0u8;
                if remaining == flits {
                    flags |= HEAD;
                    self.packets[pkt as usize].injected = cycle;
                    self.probe.packet_injected(cycle, pkt, n as u32, lane as u8);
                }
                if remaining == 1 {
                    flags |= TAIL;
                }
                v.node_lanes.push(nb + lane, Flit::new(pkt, cycle, flags));
                v.node_lane_occ[n] |= 1u64 << lane;
                set_bit(v.inject_words, n);
                self.counters.in_flight_flits += 1;
                self.moves_this_cycle += 1;
                ns.active = (remaining > 1).then(|| (pkt, remaining - 1));
            }
        }
    }

    // -----------------------------------------------------------------
    // Spatial counters and invariant checks, read off the banks.
    // -----------------------------------------------------------------

    /// Flits transmitted so far on the directed channel leaving
    /// `router` through `port` (ejection channels included).
    pub fn link_flits(&self, router: usize, port: usize) -> u64 {
        self.banks.link_flits[router * self.w.ports + port]
    }

    /// Total flits forwarded by each router onto its *network* ports
    /// (ejection excluded): a spatial congestion map.
    pub fn router_forwarded_flits(&self) -> Vec<u64> {
        (0..self.w.num_routers)
            .map(|r| {
                (0..self.w.ports)
                    .filter(|&p| matches!(self.w.peer(r, p), Peer::Router { .. }))
                    .map(|p| self.link_flits(r, p))
                    .sum()
            })
            .collect()
    }

    /// Verify the credit-counting invariant: for every cabled channel,
    /// the upstream output lane's credits plus the downstream input
    /// lane's occupancy equal the buffer depth. Returns the first
    /// violation as `(router, port, vc, credits, occupancy)`.
    pub fn check_credit_invariant(&self) -> Result<(), (usize, usize, usize, u8, usize)> {
        let (b, vcs, lanes) = (&self.banks, self.vcs, self.lanes_per_router);
        let depth = b.in_q.capacity();
        let check = |credits: u8, r: usize, p: usize, v: usize| {
            let occ = b.in_q.len(r * lanes + p * vcs + v);
            if credits as usize + occ == depth {
                Ok(())
            } else {
                Err((r, p, v, credits, occ))
            }
        };
        for r in 0..self.w.num_routers {
            for p in 0..self.w.ports {
                if let Peer::Router { router, port } = self.w.peer(r, p) {
                    for v in 0..vcs {
                        let credits = b.out_credits[r * lanes + p * vcs + v];
                        check(credits, router as usize, port as usize, v)
                            .map_err(|(.., c, occ)| (r, p, v, c, occ))?;
                    }
                }
            }
        }
        // Node-side injection channels.
        for (n, &(r, p)) in self.w.node_ports.iter().enumerate() {
            for v in 0..vcs {
                check(b.node_credits[n * vcs + v], r as usize, p as usize, v)?;
            }
        }
        Ok(())
    }

    /// Verify the worklist/occupancy-mask invariants the masked kernel
    /// relies on: every occupancy mask mirrors its queues, `routed`
    /// mirrors `in_route`, and each worklist contains exactly the
    /// routers/nodes whose enabling condition holds. Returns the first
    /// violation as a description.
    pub fn check_worklist_invariant(&self) -> Result<(), String> {
        let (b, lanes, vcs) = (&self.banks, self.lanes_per_router, self.vcs);
        let mirrors = |mask: u64, bit: usize, set: bool| (mask >> bit & 1 != 0) == set;
        for r in 0..self.w.num_routers {
            for ll in 0..lanes {
                let l = r * lanes + ll;
                if !mirrors(b.in_occ[r], ll, b.in_q.len(l) > 0) {
                    return Err(format!("router {r} lane {ll}: in_occ mask desynced"));
                }
                if !mirrors(b.out_occ[r], ll, b.out_q.len(l) > 0) {
                    return Err(format!("router {r} lane {ll}: out_occ mask desynced"));
                }
                if !mirrors(b.routed[r], ll, b.in_route[l] != NO_ROUTE) {
                    return Err(format!("router {r} lane {ll}: routed mask desynced"));
                }
            }
            if (b.out_occ[r] != 0) != b.link_work.contains(r) {
                return Err(format!("router {r}: link worklist desynced"));
            }
            if (b.in_occ[r] & b.routed[r] != 0) != b.xbar_work.contains(r) {
                return Err(format!("router {r}: crossbar worklist desynced"));
            }
            if (b.pending[r] != 0) != b.route_work.contains(r) {
                return Err(format!("router {r}: routing worklist desynced"));
            }
        }
        for n in 0..self.w.num_nodes {
            for v in 0..vcs {
                if !mirrors(b.node_lane_occ[n], v, b.node_lanes.len(n * vcs + v) > 0) {
                    return Err(format!("node {n} lane {v}: lane_occ mask desynced"));
                }
            }
            if (b.node_lane_occ[n] != 0) != b.inject_work.contains(n) {
                return Err(format!("node {n}: injection worklist desynced"));
            }
        }
        Ok(())
    }

    /// Count every flit currently buffered in any lane.
    pub fn buffered_flits(&self) -> u64 {
        self.banks.in_q.total() + self.banks.out_q.total() + self.banks.node_lanes.total()
    }

    /// Verify flit and credit conservation from the lane banks — an
    /// oracle independent of how the run was scheduled, partitioned or
    /// scanned, so an error common to all of them still trips it:
    ///
    /// * every created flit is delivered, dropped, buffered in a lane,
    ///   or still at its source (queued, streaming, or abandoned as
    ///   unroutable): `created = delivered + dropped + unroutable +
    ///   in-flight`;
    /// * the buffered flits are what the counters call in flight;
    /// * credits + buffered = depth on every channel
    ///   ([`Engine::check_credit_invariant`]).
    ///
    /// Returns the first violation as a description. Exact only while
    /// every packet has the configured length (true of this engine).
    pub fn check_conservation(&self) -> Result<(), String> {
        let (c, fpp) = (self.counters, u64::from(self.flits_per_packet));
        let buffered = self.buffered_flits();
        if buffered != c.in_flight_flits {
            return Err(format!(
                "{buffered} flits buffered but {} counted in flight",
                c.in_flight_flits
            ));
        }
        let at_source: u64 = (self.nodes.iter())
            .map(|n| {
                n.src_queue.len() as u64 * fpp + n.active.map_or(0, |(_, left)| u64::from(left))
            })
            .sum();
        let accounted =
            c.delivered_flits + c.dropped_flits + buffered + at_source + c.unroutable_packets * fpp;
        if c.created_packets * fpp != accounted {
            return Err(format!(
                "{} flits created but {accounted} accounted for \
                 ({} delivered, {} dropped, {buffered} buffered, {at_source} at source)",
                c.created_packets * fpp,
                c.delivered_flits,
                c.dropped_flits
            ));
        }
        self.check_credit_invariant()
            .map_err(|(r, p, v, credits, occ)| {
                format!("router {r} port {p} vc {v}: {credits} credits + {occ} buffered != depth")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing::{CubeDeterministic, CubeDuato, TreeAdaptive};
    use topology::{KAryNCube, KAryNTree};
    use traffic::{Bernoulli, Pattern, Periodic};

    fn one_shot_proc(node: usize, at_node: usize) -> Box<dyn InjectionProcess> {
        // Fires once on the first cycle for `at_node`, never for others.
        struct Once(bool);
        impl InjectionProcess for Once {
            fn tick(&mut self, _rng: &mut Rng64) -> bool {
                std::mem::take(&mut self.0)
            }
            fn mean_rate(&self) -> f64 {
                0.0
            }
        }
        Box::new(Once(node == at_node))
    }

    /// A Bernoulli source that goes silent after a number of cycles
    /// (no `state_word`: every-cycle schedule only).
    struct Window(u32, f64);
    impl InjectionProcess for Window {
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
    fn single_packet_on_tiny_tree_has_exact_latency() {
        // 2-ary 1-tree: two nodes, one switch. Path: node -> switch ->
        // node. Head pipeline: inject (c0), link (c0+1), route (c0+2),
        // crossbar (c0+3), ejection link (c0+4). Tail of an F-flit
        // packet lands F-1 cycles later: latency = F + 3.
        let tree = KAryNTree::new(2, 1);
        let algo = TreeAdaptive::new(tree, 1);
        let flits = 4u16;
        let pattern = TrafficGen::new(Pattern::Complement, 2);
        let mut eng = Engine::new(&algo, 4, flits, pattern, &|n| one_shot_proc(n, 0), 7);
        eng.run(40);
        assert_eq!(eng.counters().created_packets, 1);
        assert_eq!(eng.counters().delivered_packets, 1);
        let p = eng.packets()[0];
        assert_eq!(p.src, 0);
        assert_eq!(p.dest, 1);
        assert_eq!(p.injected, 0);
        assert_eq!(p.latency(), Some(flits as u32 + 3));
        assert_eq!(eng.counters().in_flight_flits, 0);
        assert_eq!(eng.buffered_flits(), 0);
    }

    #[test]
    fn single_packet_on_two_node_ring_has_exact_latency() {
        // 2-ary 1-cube: nodes 0 and 1, one link. Head: inject, node
        // link, route@r0, xbar, link, route@r1, xbar, ejection link =
        // latency 7 for the head, + F-1 for the tail.
        let cube = KAryNCube::new(2, 1);
        let algo = CubeDeterministic::new(cube);
        let flits = 4u16;
        let pattern = TrafficGen::new(Pattern::Complement, 2);
        let mut eng = Engine::new(&algo, 4, flits, pattern, &|n| one_shot_proc(n, 0), 7);
        eng.run(60);
        assert_eq!(eng.counters().delivered_packets, 1);
        assert_eq!(eng.packets()[0].latency(), Some(flits as u32 + 6));
    }

    #[test]
    fn conservation_holds_every_cycle() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let pattern = TrafficGen::new(Pattern::Uniform, 16);
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(0.04)) };
        let mut eng = Engine::new(&algo, 4, 16, pattern, &mk, 99);
        eng.set_request_reply(true);
        for _ in 0..500 {
            eng.step();
            assert_eq!(eng.check_conservation(), Ok(()));
        }
        assert!(eng.counters().delivered_packets > 0);
        // A miscounted flit must be noticed.
        eng.counters.delivered_flits += 1;
        assert!(eng.check_conservation().is_err());
    }

    #[test]
    fn all_packets_drain_after_sources_stop() {
        // Run uniform traffic on the small cube with both algorithms,
        // then stop injecting and let the network drain completely.
        for algo_box in [
            Box::new(CubeDeterministic::new(KAryNCube::new(4, 2))) as Box<dyn RoutingAlgorithm>,
            Box::new(CubeDuato::new(KAryNCube::new(4, 2))),
        ] {
            let pattern = TrafficGen::new(Pattern::Uniform, 16);
            let mut eng = Engine::new(
                algo_box.as_ref(),
                4,
                16,
                pattern,
                &|_| Box::new(Window(300, 0.05)),
                5,
            );
            eng.run(300 + 3000);
            let c = eng.counters();
            assert!(c.created_packets > 10, "{}", algo_box.name());
            assert_eq!(
                c.delivered_packets,
                c.created_packets,
                "{}",
                algo_box.name()
            );
            assert_eq!(c.in_flight_flits, 0, "{}", algo_box.name());
            assert_eq!(eng.source_queue_len(), 0, "{}", algo_box.name());
            // Everything drained: every worklist must be empty again.
            assert_eq!(eng.check_worklist_invariant(), Ok(()));
            assert!(eng.banks.link_work.is_empty() && eng.banks.route_work.is_empty());
        }
    }

    #[test]
    fn tree_drains_too() {
        for vcs in [1usize, 2, 4] {
            let algo = TreeAdaptive::new(KAryNTree::new(2, 3), vcs);
            let pattern = TrafficGen::new(Pattern::Uniform, 8);
            let mut eng = Engine::new(&algo, 4, 32, pattern, &|_| Box::new(Window(400, 0.02)), 11);
            eng.run(400 + 4000);
            let c = eng.counters();
            assert!(c.created_packets > 5);
            assert_eq!(c.delivered_packets, c.created_packets, "vcs={vcs}");
            assert_eq!(c.in_flight_flits, 0, "vcs={vcs}");
        }
    }

    #[test]
    fn packets_are_delivered_to_the_right_node_in_order() {
        // Periodic injection of several packets 0 -> 1 on the tiny tree;
        // deliveries must be complete and FIFO per source-destination
        // pair (wormhole + single injection channel guarantee this).
        let algo = TreeAdaptive::new(KAryNTree::new(2, 1), 2);
        let pattern = TrafficGen::new(Pattern::Complement, 2);
        let mut eng = Engine::new(
            &algo,
            4,
            8,
            pattern,
            &|n| {
                if n == 0 {
                    Box::new(Periodic::every(10))
                } else {
                    Box::new(Bernoulli::new(0.0))
                }
            },
            3,
        );
        eng.run(200);
        let c = eng.counters();
        assert!(c.delivered_packets >= 15);
        let mut last_delivery = 0;
        for p in eng.packets().iter().filter(|p| p.src == 0) {
            if p.delivered != NEVER {
                assert!(p.delivered > last_delivery);
                last_delivery = p.delivered;
                assert_eq!(p.dest, 1);
            }
        }
    }

    #[test]
    fn escape_lanes_are_used_under_contention() {
        // Duato on a small cube at very high load: some headers must
        // fall back to the escape channels.
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let pattern = TrafficGen::new(Pattern::Uniform, 16);
        let mut eng = Engine::new(
            &algo,
            4,
            16,
            pattern,
            &|_| Box::new(Bernoulli::new(0.06)),
            13,
        );
        eng.run(5000);
        let c = eng.counters();
        assert!(c.escape_routings > 0, "escape channels never used");
        assert!(
            c.routed_headers > c.escape_routings,
            "adaptive channels never used"
        );
    }

    #[test]
    fn deterministic_runs_are_bit_reproducible() {
        let run = |seed: u64| {
            let algo = CubeDuato::new(KAryNCube::new(4, 2));
            let pattern = TrafficGen::new(Pattern::Uniform, 16);
            let mut eng = Engine::new(
                &algo,
                4,
                16,
                pattern,
                &|_| Box::new(Bernoulli::new(0.03)),
                seed,
            );
            eng.run(2000);
            let c = eng.counters();
            (
                c.created_packets,
                c.delivered_packets,
                c.delivered_flits,
                c.routed_headers,
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn masked_kernel_matches_the_reference_audit_exactly() {
        // Cycle-by-cycle lockstep comparison on both network families,
        // checking the full observable state every few cycles.
        let cube = CubeDuato::new(KAryNCube::new(4, 2));
        let tree = TreeAdaptive::new(KAryNTree::new(2, 3), 2);
        fn check<Algo: RoutingAlgorithm>(algo: &Algo, rate: f64) {
            let n = algo.topology().num_nodes();
            let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(rate)) };
            let build = || Engine::new(algo, 4, 8, TrafficGen::new(Pattern::Uniform, n), &mk, 77);
            let (mut opt, mut refr) = (build(), build());
            for cycle in 0..1500 {
                opt.step();
                refr.run_reference(1);
                if cycle % 64 == 0 {
                    assert_eq!(opt.counters(), refr.counters(), "cycle {cycle}");
                    assert_eq!(opt.packets(), refr.packets(), "cycle {cycle}");
                    assert_eq!(opt.check_worklist_invariant(), Ok(()), "cycle {cycle}");
                    assert_eq!(refr.check_worklist_invariant(), Ok(()), "cycle {cycle}");
                }
            }
            assert_eq!(opt.counters(), refr.counters());
            assert_eq!(opt.packets(), refr.packets());
            assert_eq!(opt.state_hash(), refr.state_hash());
        }
        check(&cube, 0.01);
        check(&cube, 0.08); // saturating
        check(&tree, 0.02);
    }

    #[test]
    fn worklist_invariants_hold_under_request_reply_and_throttle() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let pattern = TrafficGen::new(Pattern::Uniform, 16);
        let mut eng = Engine::new(
            &algo,
            4,
            8,
            pattern,
            &|_| Box::new(Bernoulli::new(0.04)),
            21,
        );
        eng.set_request_reply(true);
        eng.set_injection_limit(Some(4));
        for _ in 0..800 {
            eng.step();
            assert_eq!(eng.check_worklist_invariant(), Ok(()));
        }
        assert!(eng.counters().delivered_packets > 0);
    }

    #[test]
    fn packet_ids_stop_at_the_flit_field() {
        assert_eq!(next_packet_id(0), Some(0));
        assert_eq!(
            next_packet_id(MAX_PACKET as usize - 1),
            Some(MAX_PACKET - 1)
        );
        assert_eq!(next_packet_id(MAX_PACKET as usize), Some(MAX_PACKET));
        assert_eq!(next_packet_id(MAX_PACKET as usize + 1), None);
        assert_eq!(next_packet_id(u32::MAX as usize + 1), None, "must not wrap");
        assert_eq!(next_packet_id(usize::MAX), None);
        // The last id still makes a flit.
        assert_eq!(Flit::new(MAX_PACKET, 0, HEAD | TAIL).packet(), MAX_PACKET);

        // Exhaustion ends a run at the end of the cycle it happened in.
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(0.05)) };
        let mut eng = Engine::new(&algo, 4, 8, TrafficGen::new(Pattern::Uniform, 16), &mk, 1);
        eng.run_wheel(10);
        eng.ids_exhausted = Some(eng.cycle());
        assert_eq!(eng.run_checked_wheel(100), Ok(()));
        assert_eq!(eng.cycle(), 11);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eng.run(5)));
        assert!(
            panicked.is_err(),
            "the unchecked run must not go on silently"
        );
    }

    #[test]
    fn cycle_counter_overflow_is_loud() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(0.0)) };
        let build = || Engine::new(&algo, 4, 8, TrafficGen::new(Pattern::Uniform, 16), &mk, 1);
        let mut eng = build();
        eng.run_wheel(10);
        let overflow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = eng.run_checked_wheel(u32::MAX - 5);
        }));
        assert!(overflow.is_err(), "a wrapped target would return at once");
    }

    #[test]
    fn recording_probe_mirrors_packet_table() {
        // A FlightRecorder attached to the engine must observe exactly
        // what the engine's own packet table records — and attaching it
        // must not change anything a NullProbe run produces.
        use telemetry::{FlightRecorder, Geometry, TelemetryConfig};
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(0.04)) };
        let mk_pattern = || TrafficGen::new(Pattern::Uniform, 16);
        let w = Wiring::from_topology(algo.topology());
        let geo = Geometry {
            routers: w.num_routers,
            ports: w.ports,
            vcs: algo.num_vcs(),
            nodes: w.num_nodes,
        };
        let cfg = TelemetryConfig {
            stride: 64,
            record_events: true,
        };
        let mut traced = Engine::with_probe(
            &algo,
            4,
            8,
            mk_pattern(),
            &mk,
            31,
            FlightRecorder::new(cfg, geo),
        );
        let mut plain = Engine::new(&algo, 4, 8, mk_pattern(), &mk, 31);
        traced.set_request_reply(true);
        plain.set_request_reply(true);
        traced.run(1500);
        plain.run(1500);
        assert_eq!(
            traced.counters(),
            plain.counters(),
            "probe perturbed the run"
        );
        assert_eq!(traced.packets(), plain.packets());

        let packets: Vec<PacketRec> = traced.packets().to_vec();
        let counters = traced.counters();
        let rec = traced.into_probe();
        assert!(counters.created_packets > 20, "want a busy run");
        assert_eq!(rec.packet_traces().len(), packets.len());
        let mut delivered = 0u64;
        for (t, p) in rec.packet_traces().iter().zip(&packets) {
            assert_eq!((t.src, t.dest), (p.src, p.dest));
            assert_eq!(t.flits, p.flits);
            assert_eq!(
                (t.created, t.injected, t.delivered),
                (p.created, p.injected, p.delivered)
            );
            assert_eq!(t.hops, p.hops);
            if t.delivered != NEVER {
                delivered += 1;
            }
        }
        assert_eq!(delivered, counters.delivered_packets);
        let routed: u64 = rec.packet_traces().iter().map(|t| u64::from(t.hops)).sum();
        assert_eq!(routed, counters.routed_headers);
        let blocked: u64 = rec
            .packet_traces()
            .iter()
            .map(|t| u64::from(t.blocked_attempts))
            .sum();
        assert_eq!(blocked, counters.routing_blocked);
        let escapes: u64 = rec
            .packet_traces()
            .iter()
            .map(|t| u64::from(t.escape_hops))
            .sum();
        assert_eq!(escapes, counters.escape_routings);
        // Every delivered packet decomposes, components summing to the
        // engine's own latency.
        for (id, (t, p)) in rec.packet_traces().iter().zip(&packets).enumerate() {
            if let Some(b) = t.breakdown(id as u32) {
                assert_eq!(b.network(), p.latency().unwrap());
                assert_eq!(
                    b.src_queue + b.routing + b.blocked + b.transfer,
                    p.delivered - p.created
                );
            }
        }
        assert!(!rec.events().is_empty());
    }

    #[test]
    fn idle_network_has_empty_worklists() {
        let algo = CubeDeterministic::new(KAryNCube::new(4, 2));
        let pattern = TrafficGen::new(Pattern::Uniform, 16);
        let mut eng = Engine::new(&algo, 4, 16, pattern, &|_| Box::new(Bernoulli::new(0.0)), 1);
        eng.run(100);
        let b = &eng.banks;
        assert!(b.link_work.is_empty() && b.xbar_work.is_empty());
        assert!(b.route_work.is_empty() && b.inject_work.is_empty());
        assert_eq!(eng.counters().flit_moves, 0);
    }
}
