//! The wheel schedule: a calendar queue over the injection processes.
//!
//! The injection phase is the one phase whose cost the worklists cannot
//! compress: on the every-cycle schedule each node's creation process
//! ticks its RNG every cycle, even on a completely idle network. The
//! wheel schedule — the one `netperf` runs on — removes that floor.
//! Each node's *next firing cycle* is computed in advance
//! ([`traffic::InjectionProcess::next_fire`] batches the tick draws)
//! and filed in a calendar queue of [`SLOTS`] buckets indexed by
//! `cycle mod SLOTS`, so the injection phase touches only the nodes
//! that fire this cycle plus the nodes with backlogged traffic, and a
//! fully idle network fast-forwards over cycles whose slot is empty
//! without executing them at all.
//!
//! **Bit-identity.** The scheme is a per-node RNG *time shift*, not a
//! semantic change: `next_fire` consumes exactly the tick draws the
//! per-cycle loop would have consumed (pinned by a `traffic` unit
//! test), destination draws still happen at the firing node's visit in
//! ascending node order, and the shared selection RNG is untouched (it
//! only runs in the routing phase). Each node's canonical pre-scan
//! stream state is kept in `WheelState::synced`, and
//! [`Engine::to_aos`] replays it forward to the current cycle whenever
//! the engine must leave the wheel schedule (every-cycle entry points,
//! snapshots), so the schedule is invisible from outside.
//!
//! **Requirement**: the wheel needs injection processes whose
//! `state_word`/`restore_state_word` round-trip faithfully captures
//! their state (true for every process in `traffic`). A custom process
//! with hidden state outside the state word would resync incorrectly —
//! keep such processes on the every-cycle schedule ([`Engine::run`]).
//!
//! Fault plans stay exact: idle fast-forward stops at
//! [`crate::fault::FaultModel::next_transition`] so every transient
//! flip still happens on its scheduled cycle (and is reported to the
//! probe), and cycles with in-flight flits or backlog are always
//! stepped in full.

use super::soa::Lanes;
use super::Engine;
use crate::active::ActiveSet;
use crate::fault::FaultModel;
use routing::RoutingAlgorithm;
use telemetry::Probe;
use topology::NodeId;
use traffic::Rng64;

/// Wheel size in slots (a power of two, so the slot index is a mask).
pub const SLOTS: usize = 1024;

/// Scan horizon in cycles: `next_fire` looks this far ahead. Must be
/// at most `SLOTS - 1` so a filed event is never a full wheel
/// revolution away (no slot ambiguity), and must not be 0 mod `SLOTS` —
/// a rescan filed `HORIZON` ahead never lands in the slot being
/// drained.
pub const HORIZON: u32 = 512;

/// Event tag bit: the node's process produced no firing within
/// [`HORIZON`]; re-scan it when this event comes up instead of firing.
const RESCAN: u32 = 1 << 31;

/// Canonical (pre-scan) stream state of one node, from which the live
/// scanned-ahead RNG/process state can be replayed to any cycle.
#[derive(Clone, Copy, Debug)]
struct NodeSync {
    /// RNG state before the tick draw of cycle `synced_at`.
    rng: [u64; 4],
    /// Process state word at the same point.
    proc_word: u64,
    /// Tick draws for every cycle `< synced_at` are consumed; the draw
    /// for `synced_at` itself is not.
    synced_at: u32,
}

/// The calendar queue and per-node sync state of the wheel schedule.
pub struct WheelState {
    /// `slots[c mod SLOTS]` holds the events due at cycle `c`: a node
    /// id, optionally tagged [`RESCAN`].
    slots: Vec<Vec<u32>>,
    /// Canonical stream state per node (see [`NodeSync`]).
    synced: Vec<NodeSync>,
    /// Nodes with queued or actively-streaming packets — exactly the
    /// nodes whose injection body can act without a fresh firing.
    pub(super) backlog: ActiveSet,
    /// Nodes firing in the cycle being stepped (cleared afterwards).
    fired: ActiveSet,
}

impl<A: RoutingAlgorithm + ?Sized, P: Probe, F: FaultModel> Engine<'_, A, P, F> {
    /// Mount the wheel over the nodes' current stream state (no-op when
    /// already mounted).
    pub(super) fn mount_wheel(&mut self) {
        if self.wheel.is_some() {
            return;
        }
        let nn = self.w.num_nodes;
        let mut w = Box::new(WheelState {
            slots: vec![Vec::new(); SLOTS],
            synced: vec![
                NodeSync {
                    rng: [0; 4],
                    proc_word: 0,
                    synced_at: 0,
                };
                nn
            ],
            backlog: ActiveSet::new(nn),
            fired: ActiveSet::new(nn),
        });
        let from = self.cycle;
        for n in 0..nn {
            self.wheel_scan_node(&mut w, n, from);
            let ns = &self.nodes[n];
            if !ns.src_queue.is_empty() || ns.active.is_some() {
                w.backlog.insert(n);
            }
        }
        self.wheel = Some(w);
    }

    /// Record node `n`'s canonical stream state as of cycle `from`
    /// (every tick below `from` consumed), then scan its process ahead
    /// and file the next firing — or a [`RESCAN`] at the horizon — in
    /// the wheel.
    fn wheel_scan_node(&mut self, w: &mut WheelState, n: usize, from: u32) {
        let ns = &mut self.nodes[n];
        w.synced[n] = NodeSync {
            rng: ns.rng.state(),
            proc_word: ns.proc.state_word(),
            synced_at: from,
        };
        let (at, event) = match ns.proc.next_fire(&mut ns.rng, HORIZON) {
            Some(offset) => (from + offset, n as u32),
            None => (from + HORIZON, n as u32 | RESCAN),
        };
        w.slots[at as usize & (SLOTS - 1)].push(event);
    }

    /// Leave the wheel schedule: replace every node's scanned-ahead RNG
    /// and process state with the canonical stream state replayed tick
    /// by tick up to the current cycle (at most [`HORIZON`]` + 1`
    /// non-firing ticks per node). Idempotent and free when no wheel is
    /// mounted. The every-cycle entry points and snapshots call this
    /// first, which is what lets the schedules interleave freely while
    /// staying bit-identical. (The name dates from when lane state also
    /// had a second layout to leave.)
    pub fn to_aos(&mut self) {
        let Some(w) = self.wheel.take() else {
            return;
        };
        let cycle = self.cycle;
        for (ns, sync) in self.nodes.iter_mut().zip(&w.synced) {
            ns.rng = Rng64::from_state(sync.rng);
            ns.proc.restore_state_word(sync.proc_word);
            for _ in sync.synced_at..cycle {
                // Every scheduled firing below the current cycle was
                // already processed: the replayed draws are non-firing.
                let fired = ns.proc.tick(&mut ns.rng);
                debug_assert!(!fired, "wheel missed a firing");
            }
        }
    }

    /// Drain the current cycle's wheel slot into the `fired` set,
    /// resolving [`RESCAN`] events (which may file fresh events — even
    /// offset-0 firings into this very slot). With `fire` unset the
    /// surviving events stay in the slot (the idle-skip probe).
    fn wheel_drain_slot(&mut self, w: &mut WheelState, cycle: u32, fire: bool) {
        let si = cycle as usize & (SLOTS - 1);
        let mut events = std::mem::take(&mut w.slots[si]);
        let mut i = 0;
        while i < events.len() {
            if events[i] & RESCAN != 0 {
                let n = (events[i] & !RESCAN) as usize;
                events.swap_remove(i);
                // A rescan-to-rescan loop is impossible because HORIZON
                // is not 0 mod SLOTS.
                self.wheel_scan_node(w, n, cycle);
            } else {
                i += 1;
            }
        }
        events.append(&mut w.slots[si]);
        if fire {
            for &ev in &events {
                w.fired.insert(ev as usize);
            }
            events.clear();
        }
        w.slots[si] = events; // return the allocation (or live events)
    }

    /// Phase 4 on the wheel schedule: visit — in ascending node order,
    /// exactly like the full scan — the union of this cycle's firing
    /// nodes and the backlog, running the injection body on each.
    pub(super) fn wheel_phase_injection(&mut self, v: &mut Lanes<'_>) {
        let mut w = self.wheel.take().expect("wheel schedule without a wheel");
        let cycle = self.cycle;
        self.wheel_drain_slot(&mut w, cycle, true);
        for wi in 0..w.backlog.words().len() {
            // Word snapshot: the body only edits the visited node's own
            // membership, so later bits stay valid.
            let mut bits = w.backlog.words()[wi] | w.fired.words()[wi];
            while bits != 0 {
                let n = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let created = if w.fired.contains(n) {
                    // The firing tick was consumed by the scan; draw
                    // the destination now (same per-node draw order as
                    // the full scan) and file the next firing.
                    let ns = &mut self.nodes[n];
                    let dest = self.pattern.dest(NodeId(n as u32), &mut ns.rng);
                    self.wheel_scan_node(&mut w, n, cycle + 1);
                    dest.map(|d| d.0)
                } else {
                    None
                };
                self.inject_node(v, n, created);
                let ns = &self.nodes[n];
                if !ns.src_queue.is_empty() || ns.active.is_some() {
                    w.backlog.insert(n);
                } else {
                    w.backlog.remove(n);
                }
            }
        }
        w.fired.clear();
        self.wheel = Some(w);
    }

    /// Fast-forward over empty cycles up to (exclusive) `target`,
    /// stopping at the first cycle with a wheel event or fault
    /// transition. Skipping needs nothing in flight (the link, crossbar
    /// and routing phases are no-ops) and no backlogged source (the
    /// injection phase would only tick processes — which the wheel has
    /// pre-consumed); neither can change during skipped cycles. Each
    /// skipped cycle performs exactly the observable work of an empty
    /// stepped cycle: the probe's `cycle_end` and the cycle increment.
    pub(super) fn wheel_skip_idle(&mut self, target: u32) {
        let mut w = self.wheel.take().expect("wheel schedule without a wheel");
        if self.counters.in_flight_flits == 0 && w.backlog.is_empty() {
            // Transient fault flips are scheduled; never skip past one
            // (the flip must be applied and reported on its cycle).
            let fault_bound = if F::ACTIVE {
                self.faults.next_transition(self.cycle)
            } else {
                u32::MAX
            };
            while self.cycle < target && self.cycle != fault_bound {
                let cycle = self.cycle;
                self.wheel_drain_slot(&mut w, cycle, false);
                if !w.slots[cycle as usize & (SLOTS - 1)].is_empty() {
                    break; // a node fires: step for real
                }
                self.probe.cycle_end(cycle);
                self.idle_cycles = 0;
                self.cycle = cycle + 1;
            }
        }
        self.wheel = Some(w);
    }
}

#[cfg(test)]
mod tests {
    use routing::{CubeDuato, RoutingAlgorithm, TreeAdaptive};
    use topology::{KAryNCube, KAryNTree};
    use traffic::{Bernoulli, InjectionProcess, Pattern, Periodic, TrafficGen};

    use super::super::Engine;

    fn engine_pair<'a, Algo: RoutingAlgorithm>(
        algo: &'a Algo,
        mk: &dyn Fn(usize) -> Box<dyn InjectionProcess>,
        seed: u64,
    ) -> (Engine<'a, Algo>, Engine<'a, Algo>) {
        let n = algo.topology().num_nodes();
        let a = Engine::new(algo, 4, 8, TrafficGen::new(Pattern::Uniform, n), mk, seed);
        let b = Engine::new(algo, 4, 8, TrafficGen::new(Pattern::Uniform, n), mk, seed);
        (a, b)
    }

    fn assert_same<Algo: RoutingAlgorithm>(a: &mut Engine<'_, Algo>, b: &mut Engine<'_, Algo>) {
        assert_eq!(a.cycle(), b.cycle());
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.packets(), b.packets());
        assert_eq!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn wheel_run_skips_idle_cycles_invisibly() {
        // Very low Bernoulli load: long empty stretches between
        // packets. run_wheel fast-forwards them; every observable must
        // still match the stepped run, including mid-run hashes (each
        // of which also resyncs and remounts the wheel).
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(0.0005)) };
        let (mut every, mut wheel) = engine_pair(&algo, &mk, 9);
        for _ in 0..8 {
            every.run(2500);
            wheel.run_wheel(2500);
            assert_same(&mut every, &mut wheel);
        }
        assert!(every.counters().delivered_packets > 0, "want traffic");
    }

    #[test]
    fn wheel_matches_on_periodic_and_mixed_processes() {
        // Periodic uses the closed-form next_fire override; mix with
        // Bernoulli and idle nodes to cross-check scheduling, and use
        // periods beyond the horizon to exercise RESCAN events.
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mk = |n: usize| -> Box<dyn InjectionProcess> {
            match n % 4 {
                0 => Box::new(Periodic::every(97)),
                1 => Box::new(Bernoulli::new(0.01)),
                2 => Box::new(Periodic::every(700)), // beyond HORIZON
                _ => Box::new(Bernoulli::new(0.0)),  // forever idle
            }
        };
        let (mut every, mut wheel) = engine_pair(&algo, &mk, 15);
        every.run(6000);
        wheel.run_wheel(6000);
        assert_same(&mut every, &mut wheel);
    }

    #[test]
    fn schedules_interleave() {
        // Leaving and re-entering the wheel at arbitrary cycle
        // boundaries (resync + remount) must be invisible.
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(0.03)) };
        let (mut every, mut mixed) = engine_pair(&algo, &mk, 5);
        for chunk in 0..100 {
            match chunk % 3 {
                0 => mixed.run_wheel(17),
                1 => mixed.run(3),
                _ => mixed.run_reference(4),
            }
            assert_eq!(mixed.check_worklist_invariant(), Ok(()), "chunk {chunk}");
            assert_eq!(mixed.check_credit_invariant(), Ok(()), "chunk {chunk}");
        }
        every.run(mixed.cycle());
        assert_same(&mut every, &mut mixed);
    }

    #[test]
    fn wheel_handles_request_reply_and_throttle() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(0.04)) };
        let (mut every, mut wheel) = engine_pair(&algo, &mk, 21);
        for eng in [&mut every, &mut wheel] {
            eng.set_request_reply(true);
            eng.set_injection_limit(Some(4));
        }
        every.run(1000);
        wheel.run_wheel(1000);
        assert!(every.counters().delivered_packets > 0);
        assert_same(&mut every, &mut wheel);
    }

    #[test]
    fn wheel_drain_tail_fast_forwards_to_the_same_state() {
        // Sources stop firing after the periodic burst; the wheel run
        // must drain the network identically and then skip the long
        // idle tail. Cross SLOTS cycles several times so slots wrap.
        let algo = TreeAdaptive::new(KAryNTree::new(2, 3), 2);
        let mk = |n: usize| -> Box<dyn InjectionProcess> {
            if n.is_multiple_of(3) {
                Box::new(Periodic::every(1900)) // fires once before 3700
            } else {
                Box::new(Bernoulli::new(0.0))
            }
        };
        let (mut every, mut wheel) = engine_pair(&algo, &mk, 33);
        every.run(3700);
        wheel.run_wheel(3700);
        assert!(every.counters().delivered_packets > 0);
        assert_eq!(every.counters().in_flight_flits, 0, "network drained");
        assert_same(&mut every, &mut wheel);
    }
}
