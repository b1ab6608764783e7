//! The fault plane: deterministic link/router fault injection.
//!
//! A [`FaultPlan`] *describes* a fault set — dead links, dead routers,
//! transient link outages — as a seed-derived sample, independent of
//! any particular run. [`FaultPlan::compile`] validates the plan
//! against a concrete [`Wiring`] and lowers it into a [`FaultState`]:
//! precomputed per-channel bitsets the engine consults through the
//! [`FaultModel`] trait.
//!
//! The trait mirrors how `telemetry::NullProbe` keeps the untraced
//! engine free: the engine is generic over `F: FaultModel` with
//! [`NoFaults`] as the default, and every fault check is guarded by
//! `F::ACTIVE` (an associated `const`), so the fault-free stepper
//! compiles to exactly the pre-fault-plane code.
//!
//! Semantics:
//!
//! * **Dead links** (`links=<fraction>`): an undirected router↔router
//!   channel sampled dead is down in both directions from cycle 0 and
//!   never recovers. Routing treats it as *dead*: a header whose every
//!   admissible direction is dead is abandoned — counted as a dropped
//!   packet and its flits drained (see the engine's `DROP_ROUTE` path).
//! * **Dead routers** (`routers=<count>`): all the router's channels
//!   die, including the ejection channel, and its attached nodes are
//!   marked dead — packets from or to a dead node are abandoned at the
//!   source and counted *unroutable*.
//! * **Transient outages** (`transient=<links>:<period>:<down>`): the
//!   sampled links cycle down/up with a per-link phase offset. A
//!   transiently-down channel *blocks* traffic (flits wait for the
//!   repair) but is never treated as dead, so no packet is dropped on
//!   account of a transient fault.
//!
//! The sample is a pure function of the plan's `seed` and the wiring,
//! so the same spec reproduces the same physical fault set across runs,
//! load points and thread counts.
//!
//! ```
//! use netsim::fault::FaultPlan;
//!
//! let plan = FaultPlan::parse("links=0.05,seed=0xBEEF").unwrap();
//! assert_eq!(plan.spec_string(), "links=0.05,seed=0xbeef");
//! // Round-trips, and the digest is stable for manifests.
//! assert_eq!(FaultPlan::parse(&plan.spec_string()).unwrap(), plan);
//! assert_eq!(plan.digest(), FaultPlan::parse("links=0.05,seed=0xBEEF").unwrap().digest());
//! ```

#![deny(missing_docs)]

use crate::wiring::{Peer, Wiring};
use traffic::Rng64;

/// Default plan seed (faults are sampled independently of traffic).
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17;

/// Longest permitted transient outage, in cycles: outages must repair
/// well before the engine's deadlock watchdog fires.
pub const MAX_TRANSIENT_DOWN: u32 = 10_000;

/// Transient-outage component of a [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransientSpec {
    /// How many (live) links to afflict.
    pub links: usize,
    /// Outage cycle period.
    pub period: u32,
    /// Down time at the start of each period (`0 < down < period`).
    pub down: u32,
}

/// A deterministic, seed-derived description of a fault set.
///
/// Construct with [`FaultPlan::parse`] (the CLI's `--faults` grammar)
/// or the field helpers; a scenario attaches one through its `faults`
/// flag (its [`FaultPlan::spec_string`]). An all-zero plan ([`FaultPlan::is_empty`])
/// is legal and compiles to a state with no faults at all — useful to
/// exercise the faulted engine path while asserting bit-identity with
/// the fault-free engine.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault sample (independent of the traffic seed).
    pub seed: u64,
    /// Fraction of undirected router↔router links to kill (`[0, 1]`).
    pub link_fraction: f64,
    /// Number of routers to kill outright.
    pub routers: usize,
    /// Optional transient-outage component.
    pub transient: Option<TransientSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: DEFAULT_FAULT_SEED,
            link_fraction: 0.0,
            routers: 0,
            transient: None,
        }
    }
}

/// Why a [`FaultPlan`] could not be parsed or compiled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// The `--faults` spec string is malformed.
    BadSpec(String),
    /// The plan is incompatible with the target topology.
    BadPlan(String),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::BadSpec(m) | FaultError::BadPlan(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for FaultError {}

impl FaultPlan {
    /// A plan killing the given fraction of links, default seed.
    pub fn dead_links(fraction: f64) -> Self {
        FaultPlan {
            link_fraction: fraction,
            ..FaultPlan::default()
        }
    }

    /// Whether the plan describes no faults at all.
    pub fn is_empty(&self) -> bool {
        self.link_fraction == 0.0 && self.routers == 0 && self.transient.is_none()
    }

    /// Parse the CLI `--faults` grammar: comma-separated
    /// `links=<fraction>`, `routers=<count>`,
    /// `transient=<links>:<period>:<down>`, `seed=<u64|0xhex>`; the
    /// literal `none` is the empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultError> {
        let bad = |m: String| Err(FaultError::BadSpec(m));
        let mut plan = FaultPlan::default();
        if spec.trim() == "none" {
            return Ok(plan);
        }
        for part in spec.split(',') {
            let part = part.trim();
            let Some((key, val)) = part.split_once('=') else {
                return bad(format!(
                    "bad --faults component {part:?}: want key=value \
                     (links=, routers=, transient=, seed=)"
                ));
            };
            match key {
                "links" => {
                    let f: f64 = val
                        .parse()
                        .map_err(|_| FaultError::BadSpec(format!("bad link fraction {val:?}")))?;
                    if !(0.0..=1.0).contains(&f) {
                        return bad(format!("link fraction {f} outside [0, 1]"));
                    }
                    plan.link_fraction = f;
                }
                "routers" => {
                    plan.routers = val
                        .parse()
                        .map_err(|_| FaultError::BadSpec(format!("bad router count {val:?}")))?;
                }
                "transient" => {
                    let fields: Vec<&str> = val.split(':').collect();
                    let [links, period, down] = fields.as_slice() else {
                        return bad(format!(
                            "bad transient spec {val:?}: want <links>:<period>:<down>"
                        ));
                    };
                    let t = TransientSpec {
                        links: links.parse().map_err(|_| {
                            FaultError::BadSpec(format!("bad transient link count {links:?}"))
                        })?,
                        period: period.parse().map_err(|_| {
                            FaultError::BadSpec(format!("bad transient period {period:?}"))
                        })?,
                        down: down.parse().map_err(|_| {
                            FaultError::BadSpec(format!("bad transient down time {down:?}"))
                        })?,
                    };
                    if t.down == 0 || t.down >= t.period {
                        return bad(format!(
                            "transient down time {} must satisfy 0 < down < period {}",
                            t.down, t.period
                        ));
                    }
                    if t.down > MAX_TRANSIENT_DOWN {
                        return bad(format!(
                            "transient down time {} exceeds the {MAX_TRANSIENT_DOWN}-cycle \
                             limit (outages must repair before the deadlock watchdog)",
                            t.down
                        ));
                    }
                    plan.transient = Some(t);
                }
                "seed" => {
                    let parsed = if let Some(hex) = val.strip_prefix("0x") {
                        u64::from_str_radix(hex, 16).ok()
                    } else {
                        val.parse().ok()
                    };
                    let Some(s) = parsed else {
                        return bad(format!("bad fault seed {val:?}"));
                    };
                    plan.seed = s;
                }
                _ => {
                    return bad(format!(
                        "unknown --faults key {key:?} (known: links, routers, transient, seed)"
                    ));
                }
            }
        }
        Ok(plan)
    }

    /// Canonical spec string: parses back to an equal plan, and is the
    /// digest input. The empty plan renders as `none`.
    pub fn spec_string(&self) -> String {
        let mut parts = Vec::new();
        if self.link_fraction != 0.0 {
            parts.push(format!("links={}", self.link_fraction));
        }
        if self.routers != 0 {
            parts.push(format!("routers={}", self.routers));
        }
        if let Some(t) = self.transient {
            parts.push(format!("transient={}:{}:{}", t.links, t.period, t.down));
        }
        if parts.is_empty() {
            return "none".into();
        }
        if self.seed != DEFAULT_FAULT_SEED {
            parts.push(format!("seed=0x{:x}", self.seed));
        }
        parts.join(",")
    }

    /// Stable FNV-1a digest of the canonical spec, embedded in run
    /// manifests so artifacts name the exact fault set they ran under.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in self.spec_string().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Validate against a wiring and lower into the engine-facing
    /// [`FaultState`]. Deterministic: the sample depends only on the
    /// plan (notably its `seed`) and the wiring.
    pub fn compile(&self, w: &Wiring) -> Result<FaultState, FaultError> {
        let bad = |m: String| Err(FaultError::BadPlan(m));
        let num_channels = w.num_routers * w.ports;
        let mut state = FaultState {
            ports: w.ports,
            dead: vec![0u64; num_channels.div_ceil(64)],
            down: vec![0u64; num_channels.div_ceil(64)],
            node_is_dead: vec![false; w.num_nodes],
            period: self.transient.map_or(0, |t| t.period),
            down_time: self.transient.map_or(0, |t| t.down),
            transient: Vec::new(),
            dead_links: 0,
            dead_routers: self.routers,
        };
        let mut rng = Rng64::seed_from(self.seed);

        // The undirected router<->router channel list, in canonical
        // (lower directed index first) order.
        let mut links: Vec<(u32, u16, u32, u16)> = Vec::new();
        for r in 0..w.num_routers {
            for p in 0..w.ports {
                if let Peer::Router { router, port } = w.peer(r, p) {
                    if r * w.ports + p < router as usize * w.ports + port as usize {
                        links.push((r as u32, p as u16, router, port));
                    }
                }
            }
        }

        // Dead links: partial Fisher-Yates sample of the channel list.
        let n_dead = (self.link_fraction * links.len() as f64).round() as usize;
        for i in 0..n_dead {
            let j = i + rng.index(links.len() - i);
            links.swap(i, j);
            let (r, p, r2, p2) = links[i];
            state.kill_channel(r, p);
            state.kill_channel(r2, p2);
        }
        state.dead_links = n_dead;

        // Dead routers: kill every channel touching the router and mark
        // its attached nodes dead.
        if self.routers > w.num_routers {
            return bad(format!(
                "plan kills {} routers but the network only has {}",
                self.routers, w.num_routers
            ));
        }
        let mut routers: Vec<u32> = (0..w.num_routers as u32).collect();
        for i in 0..self.routers {
            let j = i + rng.index(routers.len() - i);
            routers.swap(i, j);
            let r = routers[i] as usize;
            for p in 0..w.ports {
                state.kill_channel(r as u32, p as u16);
                match w.peer(r, p) {
                    Peer::Router { router, port } => state.kill_channel(router, port),
                    Peer::Node(n) => state.node_is_dead[n as usize] = true,
                    Peer::None => {}
                }
            }
        }

        // Transient outages: sampled from the still-live links.
        if let Some(t) = self.transient {
            let live: Vec<(u32, u16, u32, u16)> = links
                .iter()
                .copied()
                .filter(|&(r, p, _, _)| !state.channel_dead(r as usize, p as usize))
                .collect();
            if t.links > live.len() {
                return bad(format!(
                    "plan wants {} transient links but only {} live links remain",
                    t.links,
                    live.len()
                ));
            }
            let mut live = live;
            for i in 0..t.links {
                let j = i + rng.index(live.len() - i);
                live.swap(i, j);
                let (r, p, r2, p2) = live[i];
                state.transient.push(TransientLink {
                    router: r,
                    port: p,
                    peer_router: r2,
                    peer_port: p2,
                    phase: rng.below(t.period as u64) as u32,
                    down_now: false,
                });
            }
        }
        Ok(state)
    }
}

/// One link transition the engine reports to its probe: the canonical
/// direction of an undirected channel going down or up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFlip {
    /// Router on the canonical side of the link.
    pub router: u32,
    /// Port on the canonical side of the link.
    pub port: u16,
    /// `true` = outage begins, `false` = repaired.
    pub down: bool,
}

/// What the engine asks of a fault model. All checks are guarded by
/// [`FaultModel::ACTIVE`] in the engine, so the [`NoFaults`]
/// instantiation compiles every fault branch out of the hot path.
pub trait FaultModel {
    /// Whether any fault machinery is present at all. The engine tests
    /// this `const` before every fault check.
    const ACTIVE: bool;

    /// Is the directed channel leaving `router` through `port`
    /// currently unable to carry flits (dead or transiently down)?
    fn channel_down(&self, router: usize, port: usize) -> bool;

    /// Is that channel *permanently* dead? Only dead channels make a
    /// packet droppable; transient outages merely block.
    fn channel_dead(&self, router: usize, port: usize) -> bool;

    /// Is the processing node dead (its router was killed)?
    fn node_dead(&self, node: usize) -> bool;

    /// Called at the top of every cycle: apply transient transitions
    /// for `cycle`, pushing one [`LinkFlip`] per changed link.
    fn begin_cycle(&mut self, cycle: u32, flips: &mut Vec<LinkFlip>);

    /// The earliest cycle `t >= cycle` at which `begin_cycle(t)` would
    /// flip any link, or `u32::MAX` if no transition is ever due.
    /// Outage schedules are pure functions of the cycle number, so this
    /// is answerable without mutating state; the engine's wheel stepper
    /// uses it to bound how far an idle network may fast-forward
    /// without stepping (a skipped-over flip would corrupt the
    /// degraded-mode schedule and its probe events). The default suits
    /// models with no transient machinery.
    fn next_transition(&self, cycle: u32) -> u32 {
        let _ = cycle;
        u32::MAX
    }

    /// Silently re-derive the transient up/down state as it stood just
    /// *before* `begin_cycle(cycle)` would run. Called when restoring an
    /// engine snapshot at `cycle`: transient outage state is a pure
    /// function of the cycle number, so it is recomputed rather than
    /// serialized — and no [`LinkFlip`] probe events are emitted, so the
    /// next `begin_cycle(cycle)` reports exactly the flips an
    /// uninterrupted run would have reported.
    fn resync(&mut self, _cycle: u32) {}
}

/// The no-fault model: the engine's default type parameter. With
/// `ACTIVE = false` every fault check in the engine is
/// constant-folded away — `Engine<_, A, P, NoFaults>` is the
/// pre-fault-plane engine, bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultModel for NoFaults {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn channel_down(&self, _router: usize, _port: usize) -> bool {
        false
    }

    #[inline(always)]
    fn channel_dead(&self, _router: usize, _port: usize) -> bool {
        false
    }

    #[inline(always)]
    fn node_dead(&self, _node: usize) -> bool {
        false
    }

    #[inline(always)]
    fn begin_cycle(&mut self, _cycle: u32, _flips: &mut Vec<LinkFlip>) {}
}

/// One transiently-faulty link and its current state.
#[derive(Clone, Copy, Debug)]
struct TransientLink {
    router: u32,
    port: u16,
    peer_router: u32,
    peer_port: u16,
    /// Per-link phase offset into the outage period.
    phase: u32,
    down_now: bool,
}

/// A compiled fault set: per-channel bitsets the engine's fault checks
/// index in O(1). Build with [`FaultPlan::compile`].
#[derive(Clone, Debug)]
pub struct FaultState {
    ports: usize,
    /// Permanently dead directed channels (bit per `router*ports+port`).
    dead: Vec<u64>,
    /// Currently-down directed channels (superset of `dead`).
    down: Vec<u64>,
    node_is_dead: Vec<bool>,
    period: u32,
    down_time: u32,
    transient: Vec<TransientLink>,
    dead_links: usize,
    dead_routers: usize,
}

impl FaultState {
    fn kill_channel(&mut self, router: u32, port: u16) {
        let c = router as usize * self.ports + port as usize;
        self.dead[c >> 6] |= 1u64 << (c & 63);
        self.down[c >> 6] |= 1u64 << (c & 63);
    }

    fn set_down(&mut self, router: u32, port: u16, down: bool) {
        let c = router as usize * self.ports + port as usize;
        if down {
            self.down[c >> 6] |= 1u64 << (c & 63);
        } else {
            self.down[c >> 6] &= !(1u64 << (c & 63));
        }
    }

    /// Number of undirected links killed by the plan.
    pub fn dead_links(&self) -> usize {
        self.dead_links
    }

    /// Number of routers killed by the plan.
    pub fn dead_routers(&self) -> usize {
        self.dead_routers
    }

    /// Number of processing nodes attached to dead routers.
    pub fn dead_nodes(&self) -> usize {
        self.node_is_dead.iter().filter(|&&d| d).count()
    }

    /// Number of links with transient outages.
    pub fn transient_links(&self) -> usize {
        self.transient.len()
    }
}

impl FaultModel for FaultState {
    const ACTIVE: bool = true;

    #[inline]
    fn channel_down(&self, router: usize, port: usize) -> bool {
        let c = router * self.ports + port;
        self.down[c >> 6] >> (c & 63) & 1 != 0
    }

    #[inline]
    fn channel_dead(&self, router: usize, port: usize) -> bool {
        let c = router * self.ports + port;
        self.dead[c >> 6] >> (c & 63) & 1 != 0
    }

    #[inline]
    fn node_dead(&self, node: usize) -> bool {
        self.node_is_dead[node]
    }

    fn begin_cycle(&mut self, cycle: u32, flips: &mut Vec<LinkFlip>) {
        if self.transient.is_empty() {
            return;
        }
        let (period, down_time) = (self.period, self.down_time);
        let mut changes: Vec<(u32, u16, u32, u16, bool)> = Vec::new();
        for tl in &mut self.transient {
            let down = (cycle.wrapping_add(tl.phase)) % period < down_time;
            if down != tl.down_now {
                tl.down_now = down;
                changes.push((tl.router, tl.port, tl.peer_router, tl.peer_port, down));
            }
        }
        for (r, p, r2, p2, down) in changes {
            self.set_down(r, p, down);
            self.set_down(r2, p2, down);
            flips.push(LinkFlip {
                router: r,
                port: p,
                down,
            });
        }
    }

    fn next_transition(&self, cycle: u32) -> u32 {
        if self.transient.is_empty() {
            return u32::MAX;
        }
        // down(t) = (t + phase) % period < down_time, so a link flips
        // exactly when (t + phase) % period crosses 0 (up → down) or
        // down_time (down → up). For each link take the nearer of the
        // two boundaries at or after `cycle`; the modular deltas are 0
        // when `cycle` itself sits on a boundary, making the result
        // equal to `cycle` — "a transition is due right now". A link
        // whose stored state disagrees with the schedule (possible
        // before the first `begin_cycle`, whose initial state is all-up
        // regardless of phase) also flips at `cycle` itself.
        let (period, down_time) = (self.period as u64, self.down_time as u64);
        let mut earliest = u64::from(u32::MAX);
        for tl in &self.transient {
            let x = u64::from(cycle.wrapping_add(tl.phase)) % period;
            if (x < down_time) != tl.down_now {
                return cycle;
            }
            let to_down = (period - x) % period;
            let to_up = (down_time + period - x) % period;
            earliest = earliest.min(u64::from(cycle) + to_down.min(to_up));
        }
        earliest.min(u64::from(u32::MAX)) as u32
    }

    fn resync(&mut self, cycle: u32) {
        // Rebuild the `down` superset from scratch: permanent deaths,
        // then the transient state as of cycle - 1 (compile-time state —
        // everything up — when resuming at cycle 0, since begin_cycle
        // has not run yet in that history).
        self.down.copy_from_slice(&self.dead);
        let (period, down_time) = (self.period, self.down_time);
        let transient = std::mem::take(&mut self.transient);
        let mut resynced = transient;
        for tl in &mut resynced {
            let down = cycle > 0 && (cycle - 1).wrapping_add(tl.phase) % period < down_time;
            tl.down_now = down;
            if down {
                let (r, p, r2, p2) = (tl.router, tl.port, tl.peer_router, tl.peer_port);
                self.set_down(r, p, true);
                self.set_down(r2, p2, true);
            }
        }
        self.transient = resynced;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{KAryNCube, KAryNTree};

    fn cube_wiring() -> Wiring {
        Wiring::from_topology(&KAryNCube::new(4, 2))
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        for spec in [
            "none",
            "links=0.05",
            "links=0.15,routers=2",
            "transient=4:200:50",
            "links=0.1,seed=0xdeadbeef",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!(
                FaultPlan::parse(&plan.spec_string()).unwrap(),
                plan,
                "{spec}"
            );
        }
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::default());
        assert!(FaultPlan::parse("none").unwrap().is_empty());
        for bad in [
            "links=1.5",
            "links=abc",
            "routers=-1",
            "transient=4:200",
            "transient=4:100:100",
            "transient=1:90000:20000",
            "seed=zz",
            "widgets=3",
            "links",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn digest_distinguishes_plans() {
        let a = FaultPlan::parse("links=0.05").unwrap();
        let b = FaultPlan::parse("links=0.15").unwrap();
        let c = FaultPlan::parse("links=0.05,seed=1").unwrap();
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }

    #[test]
    fn compile_kills_the_requested_fraction_symmetrically() {
        let w = cube_wiring();
        // 4-ary 2-cube: 16 routers x 4 network ports / 2 = 32 links.
        let st = FaultPlan::dead_links(0.25).compile(&w).unwrap();
        assert_eq!(st.dead_links(), 8);
        let mut dead_directed = 0;
        for r in 0..w.num_routers {
            for p in 0..w.ports {
                if let Peer::Router { router, port } = w.peer(r, p) {
                    assert_eq!(
                        st.channel_dead(r, p),
                        st.channel_dead(router as usize, port as usize),
                        "fault must be symmetric"
                    );
                    if st.channel_dead(r, p) {
                        dead_directed += 1;
                        assert!(st.channel_down(r, p), "dead implies down");
                    }
                }
            }
        }
        assert_eq!(dead_directed, 16);
        assert_eq!(st.dead_nodes(), 0);
    }

    #[test]
    fn compile_is_deterministic_and_seed_sensitive() {
        let w = cube_wiring();
        let dead_set = |seed: u64| {
            let st = FaultPlan {
                seed,
                ..FaultPlan::dead_links(0.25)
            }
            .compile(&w)
            .unwrap();
            (0..w.num_routers * w.ports)
                .filter(|&c| st.channel_dead(c / w.ports, c % w.ports))
                .collect::<Vec<_>>()
        };
        assert_eq!(dead_set(7), dead_set(7));
        assert_ne!(dead_set(7), dead_set(8));
    }

    #[test]
    fn dead_router_takes_its_nodes_down() {
        let w = cube_wiring();
        let st = FaultPlan {
            routers: 3,
            ..FaultPlan::default()
        }
        .compile(&w)
        .unwrap();
        assert_eq!(st.dead_routers(), 3);
        // On the cube every router hosts exactly one node.
        assert_eq!(st.dead_nodes(), 3);
        let too_many = FaultPlan {
            routers: w.num_routers + 1,
            ..FaultPlan::default()
        };
        assert!(too_many.compile(&w).is_err());
    }

    #[test]
    fn transient_links_flip_down_and_up() {
        let w = Wiring::from_topology(&KAryNTree::new(2, 3));
        let plan = FaultPlan::parse("transient=3:100:25").unwrap();
        let mut st = plan.compile(&w).unwrap();
        assert_eq!(st.transient_links(), 3);
        assert_eq!(st.dead_links(), 0);
        let mut flips = Vec::new();
        let mut downs = 0;
        let mut ups = 0;
        for cycle in 0..300 {
            st.begin_cycle(cycle, &mut flips);
            for f in flips.drain(..) {
                if f.down {
                    downs += 1;
                } else {
                    ups += 1;
                }
                // Transient outages never look dead.
                assert!(!st.channel_dead(f.router as usize, f.port as usize));
            }
        }
        // Each link sees ~3 periods: at least two full cycles each.
        assert!(downs >= 6 && ups >= 6, "downs={downs} ups={ups}");
    }

    #[test]
    fn resync_reproduces_uninterrupted_transient_state() {
        let w = Wiring::from_topology(&KAryNTree::new(2, 3));
        let plan = FaultPlan::parse("transient=3:100:25,links=0.05").unwrap();
        let mut live = plan.compile(&w).unwrap();
        let mut flips = Vec::new();
        for resume_at in [0u32, 1, 17, 99, 100, 137, 250] {
            // Advance the live state up to (but not including) resume_at.
            let mut uninterrupted = plan.compile(&w).unwrap();
            for cycle in 0..resume_at {
                uninterrupted.begin_cycle(cycle, &mut flips);
            }
            flips.clear();
            // Resync a fresh compile straight to the same point.
            live.resync(resume_at);
            assert_eq!(live.down, uninterrupted.down, "cycle {resume_at}");
            for (a, b) in live.transient.iter().zip(&uninterrupted.transient) {
                assert_eq!(a.down_now, b.down_now, "cycle {resume_at}");
            }
            // And the next begin_cycle must report identical flips.
            let mut f_live = Vec::new();
            let mut f_uni = Vec::new();
            live.begin_cycle(resume_at, &mut f_live);
            uninterrupted.begin_cycle(resume_at, &mut f_uni);
            assert_eq!(f_live, f_uni, "cycle {resume_at}");
        }
    }

    #[test]
    fn next_transition_predicts_begin_cycle_flips() {
        let w = Wiring::from_topology(&KAryNTree::new(2, 3));
        for spec in ["transient=1:100:25", "transient=5:64:1", "transient=3:7:6"] {
            let plan = FaultPlan::parse(spec).unwrap();
            let mut st = plan.compile(&w).unwrap();
            let mut flips = Vec::new();
            // Brute force: record every cycle in [0, 400) at which
            // begin_cycle reports at least one flip.
            let mut flip_cycles = Vec::new();
            let mut predictions = Vec::new();
            for cycle in 0..400u32 {
                // Predict before begin_cycle mutates the stored state.
                predictions.push(st.next_transition(cycle));
                st.begin_cycle(cycle, &mut flips);
                if !flips.is_empty() {
                    flip_cycles.push(cycle);
                }
                flips.clear();
            }
            for (cycle, &predicted) in predictions.iter().enumerate() {
                let want = flip_cycles
                    .iter()
                    .copied()
                    .find(|&t| t >= cycle as u32)
                    .unwrap_or(u32::MAX);
                // Past the last observed flip the brute-force window is
                // exhausted; only check predictions inside it.
                if want != u32::MAX || predicted < 400 {
                    assert_eq!(predicted, want, "{spec} at cycle {cycle}");
                }
            }
        }
        // No transients: never.
        let st = FaultPlan::parse("links=0.05").unwrap().compile(&w).unwrap();
        assert_eq!(st.next_transition(0), u32::MAX);
        assert_eq!(NoFaults.next_transition(123), u32::MAX);
    }

    #[test]
    fn empty_plan_compiles_to_nothing() {
        let w = cube_wiring();
        let mut st = FaultPlan::default().compile(&w).unwrap();
        assert_eq!(
            (st.dead_links(), st.dead_routers(), st.transient_links()),
            (0, 0, 0)
        );
        for r in 0..w.num_routers {
            for p in 0..w.ports {
                assert!(!st.channel_down(r, p));
            }
        }
        let mut flips = Vec::new();
        st.begin_cycle(0, &mut flips);
        assert!(flips.is_empty());
    }
}
