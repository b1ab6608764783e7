//! Deterministic engine snapshots: the serving plane's engine layer.
//!
//! A snapshot captures the *complete* mutable state of an [`Engine`] at
//! a cycle boundary — RNG states, lane queues and credits, occupancy
//! masks, round-robin cursors, the packet table, per-channel flit
//! counters and the aggregate [`Counters`] — as one versioned,
//! self-checking byte buffer. The hard contract, enforced by the
//! `serving_plane` integration tests and the verify.sh smoke:
//!
//! > `run(N)` → `snapshot` → restore into a freshly built engine →
//! > `run(M)` is **bit-identical** to an uninterrupted `run(N + M)` —
//! > counters, packet tables, and the telemetry JSONL event suffix —
//! > across healthy/faulted/traced and serial/sharded steppers.
//!
//! What is *not* serialized, and why that is sound at a cycle boundary:
//!
//! * **worklists** (`link_work` …): membership is a pure function of
//!   the occupancy masks (`out_occ`, `in_occ & routed`, `pending`,
//!   `node_lane_occ`), so the restore rebuilds them from the masks;
//! * **the wheel**: a snapshot first leaves the wheel schedule
//!   ([`Engine::to_aos`]), so the per-node streams are serialized at
//!   their canonical positions and the wheel is remounted lazily;
//! * **`network_lanes`**: derived from the wiring at construction;
//! * **`reply_buf`**: drained within every cycle's link phase, so it is
//!   empty at every boundary (debug-asserted by the writer);
//! * **fault state**: `FaultState` outage schedules are pure functions
//!   of the cycle number, so the restore calls
//!   [`resync`](crate::fault::FaultModel::resync) instead
//!   of serializing bitsets;
//! * **shard plans**: a sharded cycle drains its scratch queues at
//!   every phase barrier, so a snapshot taken between cycles restores
//!   under any partition.
//!
//! # Binary format (version 1, all integers little-endian)
//!
//! ```text
//! magic    b"NPSN"
//! version  u32
//! ident    u64   caller-supplied configuration digest
//! state    ...   see the field-by-field encoders below
//! trailer  u64   FNV-1a over every preceding byte
//! ```
//!
//! [`EngineSnapshot::state_hash`] is FNV-1a over the `state` section
//! alone, so two engines in the same configuration can be compared for
//! state equality without comparing buffers byte-by-byte — and the
//! restore contract "same `state_hash` ⟹ same future" is exactly the
//! determinism statement above.

use super::soa::{QueueBank, SoaBanks};
use super::{Counters, Engine, DROP_ROUTE, NO_ROUTE};
use crate::fault::FaultModel;
use crate::flit::{Flit, PacketRec, HEAD, MAX_PACKET, TAIL};
use netstats::cache::{fnv1a, fnv1a_extend};
use routing::RoutingAlgorithm;
use telemetry::Probe;
use traffic::Rng64;

/// Snapshot format magic bytes.
pub const MAGIC: [u8; 4] = *b"NPSN";
/// Current snapshot format version.
pub const VERSION: u32 = 1;

const HEADER_LEN: usize = 4 + 4 + 8; // magic + version + ident
const TRAILER_LEN: usize = 8;

/// Why a snapshot could not be read or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer is not a snapshot: wrong magic, truncated, trailing
    /// garbage, or the integrity trailer does not match the contents.
    Corrupt(String),
    /// The buffer is a snapshot of an unsupported format version.
    Version {
        /// Version found in the buffer.
        found: u32,
        /// Version this binary writes and reads.
        expected: u32,
    },
    /// The snapshot is intact but belongs to a different configuration
    /// (ident or geometry disagrees with the engine being restored).
    Mismatch(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::Version { found, expected } => write!(
                f,
                "snapshot version {found} unsupported (this binary reads version {expected})"
            ),
            SnapshotError::Mismatch(msg) => write!(f, "snapshot mismatch: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A validated, self-contained engine snapshot.
///
/// Construction always validates the envelope (magic, version,
/// integrity trailer), so holding an `EngineSnapshot` guarantees the
/// buffer is structurally sound; [`Engine::restore`] additionally
/// checks that it matches the engine's configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineSnapshot {
    bytes: Vec<u8>,
}

impl EngineSnapshot {
    /// Validate a byte buffer (e.g. read from a checkpoint file) as a
    /// snapshot.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(SnapshotError::Corrupt(format!(
                "{} bytes is shorter than the fixed envelope",
                bytes.len()
            )));
        }
        if bytes[..4] != MAGIC {
            return Err(SnapshotError::Corrupt(
                "bad magic (not an engine snapshot)".to_string(),
            ));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(SnapshotError::Version {
                found: version,
                expected: VERSION,
            });
        }
        let body = &bytes[..bytes.len() - TRAILER_LEN];
        let stored = u64::from_le_bytes(bytes[bytes.len() - TRAILER_LEN..].try_into().unwrap());
        if fnv1a(body) != stored {
            return Err(SnapshotError::Corrupt(
                "integrity trailer mismatch (truncated or flipped bytes)".to_string(),
            ));
        }
        Ok(EngineSnapshot { bytes })
    }

    /// The raw snapshot bytes (write these to the checkpoint file).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume the snapshot, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The format version of this snapshot.
    pub fn version(&self) -> u32 {
        u32::from_le_bytes(self.bytes[4..8].try_into().unwrap())
    }

    /// The caller-supplied configuration ident the snapshot was taken
    /// under.
    pub fn ident(&self) -> u64 {
        u64::from_le_bytes(self.bytes[8..16].try_into().unwrap())
    }

    /// The cycle the snapshot was taken at (the next cycle to execute).
    pub fn cycle(&self) -> u32 {
        u32::from_le_bytes(self.bytes[16..20].try_into().unwrap())
    }

    /// FNV-1a over the state section: equal hashes ⟺ equal serialized
    /// engine state. Cheap enough to log per checkpoint.
    pub fn state_hash(&self) -> u64 {
        fnv1a(&self.bytes[HEADER_LEN..self.bytes.len() - TRAILER_LEN])
    }
}

// ---------------------------------------------------------------------
// Little-endian encoder / decoder over a flat byte buffer.
// ---------------------------------------------------------------------

pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn rng(&mut self, rng: &Rng64) {
        for word in rng.state() {
            self.u64(word);
        }
    }
    /// One lane: its occupancy, then its flits front to back, each
    /// widened to `u32` packet, `u32` moved, `u8` flags.
    fn queue(&mut self, q: &QueueBank, l: usize) {
        self.u8(q.len(l) as u8);
        for f in q.iter(l) {
            self.u32(f.packet());
            self.u32(f.moved);
            self.u8(f.flags());
        }
    }
    /// A lane's route as a `u32`: the output lane, or a sentinel at its
    /// format value (`NO_ROUTE` = `u32::MAX`, `DROP_ROUTE` = `u32::MAX - 1`).
    fn route(&mut self, route: u8) {
        self.u32(match route {
            NO_ROUTE => u32::MAX,
            DROP_ROUTE => u32::MAX - 1,
            lane => u32::from(lane),
        });
    }
}

pub(crate) struct Dec<'b> {
    pub(crate) bytes: &'b [u8],
    pub(crate) pos: usize,
}

impl<'b> Dec<'b> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'b [u8], SnapshotError> {
        if self.pos + n > self.bytes.len() {
            return Err(SnapshotError::Corrupt(
                "state section truncated".to_string(),
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn rng(&mut self) -> Result<Rng64, SnapshotError> {
        Ok(Rng64::from_state([
            self.u64()?,
            self.u64()?,
            self.u64()?,
            self.u64()?,
        ]))
    }
    /// Decode one lane into the (empty) lane `l` of `q`.
    fn queue(&mut self, q: &mut QueueBank, l: usize) -> Result<(), SnapshotError> {
        let (len, cap) = (self.u8()? as usize, q.capacity());
        if len > cap {
            return Err(SnapshotError::Corrupt(format!(
                "lane holds {len} flits but capacity is {cap}"
            )));
        }
        for _ in 0..len {
            let (packet, moved, flags) = (self.u32()?, self.u32()?, self.u8()?);
            if packet > MAX_PACKET {
                return Err(SnapshotError::Corrupt(format!(
                    "flit names packet {packet}, above the largest id {MAX_PACKET}"
                )));
            }
            if flags > HEAD | TAIL {
                return Err(SnapshotError::Corrupt(format!(
                    "flit flags 0x{flags:02x} hold bits other than head and tail"
                )));
            }
            q.push(l, Flit::new(packet, moved, flags));
        }
        Ok(())
    }
    /// Decode the route of a lane of a `lanes`-lane router.
    fn route(&mut self, lanes: usize) -> Result<u8, SnapshotError> {
        match self.u32()? {
            u32::MAX => Ok(NO_ROUTE),
            w if w == u32::MAX - 1 => Ok(DROP_ROUTE),
            w if (w as usize) < lanes => Ok(w as u8),
            w => Err(SnapshotError::Corrupt(format!(
                "route {w} names no lane of a {lanes}-lane router"
            ))),
        }
    }
    pub(crate) fn done(&self) -> Result<(), SnapshotError> {
        if self.pos != self.bytes.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing state bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

pub(crate) fn encode_counters(e: &mut Enc, c: &Counters) {
    e.u64(c.delivered_flits);
    e.u64(c.delivered_packets);
    e.u64(c.created_packets);
    e.u64(c.in_flight_flits);
    e.u64(c.routed_headers);
    e.u64(c.routing_blocked);
    e.u64(c.escape_routings);
    e.u64(c.flit_moves);
    e.u64(c.dropped_packets);
    e.u64(c.dropped_flits);
    e.u64(c.unroutable_packets);
}

pub(crate) fn decode_counters(d: &mut Dec) -> Result<Counters, SnapshotError> {
    Ok(Counters {
        delivered_flits: d.u64()?,
        delivered_packets: d.u64()?,
        created_packets: d.u64()?,
        in_flight_flits: d.u64()?,
        routed_headers: d.u64()?,
        routing_blocked: d.u64()?,
        escape_routings: d.u64()?,
        flit_moves: d.u64()?,
        dropped_packets: d.u64()?,
        dropped_flits: d.u64()?,
        unroutable_packets: d.u64()?,
    })
}

impl<'a, A: RoutingAlgorithm + ?Sized, P: Probe, F: FaultModel> Engine<'a, A, P, F> {
    /// The lane depth this engine was built with.
    fn buffer_depth(&self) -> usize {
        self.banks.in_q.capacity()
    }

    /// Serialize the state section (everything between the ident and
    /// the trailer) into `e`. Field order is the format contract: the
    /// banks are written router by router, node by node.
    fn encode_state(&self, e: &mut Enc) {
        debug_assert!(
            self.reply_buf.is_empty(),
            "snapshots are taken at cycle boundaries, where reply_buf is drained"
        );
        debug_assert!(self.wheel.is_none(), "node streams must be canonical");
        e.u32(self.cycle);
        e.u32(self.idle_cycles);
        encode_counters(e, &self.counters);
        e.rng(&self.rng);
        e.u32(self.injection_limit.unwrap_or(u32::MAX));
        e.u8(self.request_reply as u8);
        // Geometry, so restore can reject a mismatched engine even when
        // the caller's ident check is lax.
        e.u32(self.w.num_routers as u32);
        e.u32(self.w.num_nodes as u32);
        e.u32(self.w.ports as u32);
        e.u32(self.vcs as u32);
        e.u16(self.flits_per_packet);
        e.u8(self.buffer_depth() as u8);

        let (b, lanes, ports, vcs) = (&self.banks, self.lanes_per_router, self.w.ports, self.vcs);
        for r in 0..self.w.num_routers {
            let lane_range = r * lanes..(r + 1) * lanes;
            for l in lane_range.clone() {
                e.queue(&b.in_q, l);
            }
            for &route in &b.in_route[lane_range.clone()] {
                e.route(route);
            }
            for l in lane_range.clone() {
                e.queue(&b.out_q, l);
            }
            e.buf.extend_from_slice(&b.out_credits[lane_range]);
            e.u64(b.out_bound[r]);
            e.u64(b.pending[r]);
            e.u64(b.in_occ[r]);
            e.u64(b.out_occ[r]);
            e.u64(b.routed[r]);
            e.u32(b.route_rr[r]);
            e.buf
                .extend_from_slice(&b.link_rr[r * ports..(r + 1) * ports]);
        }
        for (n, ns) in self.nodes.iter().enumerate() {
            e.u32(ns.src_queue.len() as u32);
            for &id in &ns.src_queue {
                e.u32(id);
            }
            match ns.active {
                Some((id, left)) => {
                    e.u8(1);
                    e.u32(id);
                    e.u16(left);
                }
                None => {
                    e.u8(0);
                    e.u32(0);
                    e.u16(0);
                }
            }
            e.u8(ns.active_lane);
            for l in n * vcs..(n + 1) * vcs {
                e.queue(&b.node_lanes, l);
            }
            e.buf
                .extend_from_slice(&b.node_credits[n * vcs..(n + 1) * vcs]);
            e.u64(b.node_lane_occ[n]);
            e.u8(b.node_lane_rr[n]);
            e.rng(&ns.rng);
            e.u64(ns.proc.state_word());
        }
        e.u32(self.packets.len() as u32);
        for p in &self.packets {
            e.u32(p.src);
            e.u32(p.dest);
            e.u32(p.created);
            e.u32(p.injected);
            e.u32(p.delivered);
            e.u16(p.flits);
            e.u16(p.hops);
            e.u32(p.in_reply_to);
        }
        for &lf in &self.banks.link_flits {
            e.u64(lf);
        }
    }

    /// Take a snapshot of the engine at the current cycle boundary.
    /// `ident` is an opaque configuration digest chosen by the caller
    /// (the scenario layer uses its scenario/fault digest); restore
    /// refuses a snapshot whose ident differs.
    ///
    /// Leaves the wheel schedule first ([`Engine::to_aos`]), so the
    /// serialized bytes are independent of how the state was produced.
    pub fn snapshot(&mut self, ident: u64) -> EngineSnapshot {
        self.to_aos();
        let mut e = Enc {
            buf: Vec::with_capacity(4096),
        };
        e.buf.extend_from_slice(&MAGIC);
        e.u32(VERSION);
        e.u64(ident);
        self.encode_state(&mut e);
        let trailer = fnv1a(&e.buf);
        e.u64(trailer);
        EngineSnapshot { bytes: e.buf }
    }

    /// FNV-1a over the serialized state section, without building the
    /// envelope: equal hashes ⟺ equal engine state (in an equal
    /// configuration). `eng.state_hash() == eng.snapshot(i).state_hash()`
    /// for every `i`. Leaves the wheel schedule ([`Engine::to_aos`]).
    pub fn state_hash(&mut self) -> u64 {
        self.to_aos();
        let mut e = Enc {
            buf: Vec::with_capacity(4096),
        };
        self.encode_state(&mut e);
        fnv1a_extend(0xcbf2_9ce4_8422_2325, &e.buf)
    }

    /// Restore a snapshot into this engine, which must have been built
    /// with the same configuration (same topology, routing algorithm,
    /// VC count, lane depth, packet length, seed-independent knobs) —
    /// geometry is re-validated here, semantic equality is the caller's
    /// `ident` contract. After a successful restore the engine's future
    /// is bit-identical to the snapshotted engine's.
    pub fn restore(&mut self, snap: &EngineSnapshot, ident: u64) -> Result<(), SnapshotError> {
        // A wheel describing the pre-restore streams must not survive.
        self.to_aos();
        if snap.ident() != ident {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot ident 0x{:016x} does not match configuration ident 0x{:016x}",
                snap.ident(),
                ident
            )));
        }
        let bytes = snap.as_bytes();
        let mut d = Dec {
            bytes: &bytes[HEADER_LEN..bytes.len() - TRAILER_LEN],
            pos: 0,
        };

        let cycle = d.u32()?;
        let idle_cycles = d.u32()?;
        let counters = decode_counters(&mut d)?;
        let rng = d.rng()?;
        let injection_limit = match d.u32()? {
            u32::MAX => None,
            v => Some(v),
        };
        let request_reply = d.u8()? != 0;

        let geometry = [
            ("routers", d.u32()? as usize, self.w.num_routers),
            ("nodes", d.u32()? as usize, self.w.num_nodes),
            ("ports", d.u32()? as usize, self.w.ports),
            ("vcs", d.u32()? as usize, self.vcs),
        ];
        for (what, got, want) in geometry {
            if got != want {
                return Err(SnapshotError::Mismatch(format!(
                    "snapshot has {got} {what}, engine has {want}"
                )));
            }
        }
        let fpp = d.u16()?;
        if fpp != self.flits_per_packet {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {fpp} flits/packet, engine has {}",
                self.flits_per_packet
            )));
        }
        let buf_depth = d.u8()? as usize;
        if buf_depth != self.buffer_depth() {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {buf_depth}-flit lanes, engine has {}-flit lanes",
                self.buffer_depth()
            )));
        }

        // Decode into fresh banks first, so a corrupt tail leaves the
        // engine untouched.
        let (lanes, ports, vcs) = (self.lanes_per_router, self.w.ports, self.vcs);
        let mut b = SoaBanks::new(&self.w, vcs, buf_depth);
        for r in 0..self.w.num_routers {
            let lane_range = r * lanes..(r + 1) * lanes;
            for l in lane_range.clone() {
                d.queue(&mut b.in_q, l)?;
            }
            for l in lane_range.clone() {
                b.in_route[l] = d.route(lanes)?;
            }
            for l in lane_range.clone() {
                d.queue(&mut b.out_q, l)?;
            }
            b.out_credits[lane_range.clone()].copy_from_slice(d.take(lanes)?);
            b.out_bound[r] = d.u64()?;
            b.pending[r] = d.u64()?;
            b.in_occ[r] = d.u64()?;
            b.out_occ[r] = d.u64()?;
            b.routed[r] = d.u64()?;
            b.route_rr[r] = d.u32()?;
            b.link_rr[r * ports..(r + 1) * ports].copy_from_slice(d.take(ports)?);
        }

        struct NodePatch {
            src_queue: std::collections::VecDeque<u32>,
            active: Option<(u32, u16)>,
            active_lane: u8,
            rng: Rng64,
            proc_word: u64,
        }
        let mut node_patches: Vec<NodePatch> = Vec::with_capacity(self.w.num_nodes);
        for n in 0..self.w.num_nodes {
            let qlen = d.u32()? as usize;
            let mut src_queue = std::collections::VecDeque::with_capacity(qlen);
            for _ in 0..qlen {
                src_queue.push_back(d.u32()?);
            }
            let has_active = d.u8()? != 0;
            let id = d.u32()?;
            let left = d.u16()?;
            let active = has_active.then_some((id, left));
            let active_lane = d.u8()?;
            for l in n * vcs..(n + 1) * vcs {
                d.queue(&mut b.node_lanes, l)?;
            }
            b.node_credits[n * vcs..(n + 1) * vcs].copy_from_slice(d.take(vcs)?);
            b.node_lane_occ[n] = d.u64()?;
            b.node_lane_rr[n] = d.u8()?;
            node_patches.push(NodePatch {
                src_queue,
                active,
                active_lane,
                rng: d.rng()?,
                proc_word: d.u64()?,
            });
        }

        let num_packets = d.u32()? as usize;
        let mut packets = Vec::with_capacity(num_packets);
        for _ in 0..num_packets {
            packets.push(PacketRec {
                src: d.u32()?,
                dest: d.u32()?,
                created: d.u32()?,
                injected: d.u32()?,
                delivered: d.u32()?,
                flits: d.u16()?,
                hops: d.u16()?,
                in_reply_to: d.u32()?,
            });
        }
        for lf in b.link_flits.iter_mut() {
            *lf = d.u64()?;
        }
        d.done()?;

        // Commit. From here on nothing can fail.
        self.cycle = cycle;
        self.idle_cycles = idle_cycles;
        self.counters = counters;
        self.rng = rng;
        self.injection_limit = injection_limit;
        self.request_reply = request_reply;
        // Worklist membership is a pure function of the masks at a
        // cycle boundary.
        b.rebuild_worklists();
        self.banks = b;
        for (ns, patch) in self.nodes.iter_mut().zip(node_patches) {
            ns.src_queue = patch.src_queue;
            ns.active = patch.active;
            ns.active_lane = patch.active_lane;
            ns.rng = patch.rng;
            ns.proc.restore_state_word(patch.proc_word);
        }
        self.packets = packets;
        self.moves_this_cycle = 0;
        self.reply_buf.clear();
        self.fault_flips.clear();
        self.stall = None;

        // Transient fault schedules are pure functions of the cycle:
        // silently re-derive the outage state as it stood before this
        // cycle (no LinkFlip probe events for pre-snapshot history).
        self.faults.resync(self.cycle);

        // Let a stateful probe rebuild its per-packet tables.
        for p in &self.packets {
            self.probe.resume_packet(
                p.src,
                p.dest,
                p.flits,
                p.created,
                p.injected,
                p.delivered,
                p.hops,
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, NoFaults};
    use crate::sim::InjectionSpec;
    use crate::wiring::Wiring;
    use routing::{CubeDuato, TreeAdaptive};
    use telemetry::NullProbe;
    use topology::{KAryNCube, KAryNTree};
    use traffic::{Bernoulli, InjectionProcess, Pattern, TrafficGen};

    fn mk_engine(algo: &CubeDuato, seed: u64) -> Engine<'_, CubeDuato> {
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(0.04)) };
        Engine::new(algo, 4, 8, TrafficGen::new(Pattern::Uniform, 16), &mk, seed)
    }

    /// An engine configured as registry scenario `name` runs at load
    /// 0.4 (`netperf run <name> --load 0.4`), on `algo` — the
    /// scenario's algorithm — degraded by `faults`.
    fn registry_engine<'a, A: RoutingAlgorithm, F: FaultModel>(
        name: &str,
        algo: &'a A,
        faults: F,
    ) -> Engine<'a, A, NullProbe, F> {
        let cfg = crate::scenario::named(name).unwrap().config_at(0.4);
        let InjectionSpec::Bernoulli { packets_per_cycle } = cfg.injection else {
            panic!("{name} is not a Bernoulli scenario");
        };
        let pattern = TrafficGen::new(cfg.pattern, algo.topology().num_nodes());
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(packets_per_cycle)) };
        let (depth, fpp, seed) = (cfg.buffer_depth, cfg.flits_per_packet, cfg.seed);
        let mut eng =
            Engine::with_probe_and_faults(algo, depth, fpp, pattern, &mk, seed, NullProbe, faults);
        eng.set_injection_limit(cfg.injection_limit);
        eng.set_request_reply(cfg.request_reply);
        eng
    }

    #[test]
    fn golden_state_hashes_are_pinned() {
        // Recorded from the encoding as it stood when flits were 12
        // bytes in memory; `netperf snapshot --json` on a checkpoint of
        // the same run at the same cycle prints the same hash. A change
        // to any encoded byte fails here.
        let cube = CubeDuato::new(KAryNCube::new(4, 2));
        let mut eng = registry_engine("cube-duato-tiny", &cube, NoFaults);
        eng.run_wheel(500);
        assert_eq!(
            eng.state_hash(),
            0x4980_c973_3565_101e,
            "cube-duato-tiny @ 500"
        );
        eng.run_wheel(1500);
        assert_eq!(
            eng.state_hash(),
            0xf30b_052d_e339_dc2e,
            "cube-duato-tiny @ 2000"
        );

        let tree = TreeAdaptive::new(KAryNTree::new(4, 2), 2);
        let mut eng = registry_engine("tree-2vc-tiny", &tree, NoFaults);
        eng.run_wheel(2000);
        assert_eq!(
            eng.state_hash(),
            0x0a5a_d879_efbb_cc80,
            "tree-2vc-tiny @ 2000"
        );

        // Faulted (`--faults links=0.1,routers=1`), hashed while three
        // lanes drain dropped packets: the DROP_ROUTE sentinel is encoded.
        let w = Wiring::from_topology(cube.topology());
        let plan = FaultPlan::parse("links=0.1,routers=1").unwrap();
        let mut eng = registry_engine("cube-duato-tiny", &cube, plan.compile(&w).unwrap());
        eng.run_wheel(512);
        let draining = eng.banks.in_route.iter().filter(|&&r| r == DROP_ROUTE);
        assert_eq!(draining.count(), 3);
        assert_eq!(eng.state_hash(), 0xfb78_2e62_b4d6_3690, "faulted @ 512");
    }

    /// Where router 0's first route word and the first flit buffered in
    /// one of its input lanes sit in a snapshot's bytes (walking the
    /// format of `encode_state`).
    fn router0_offsets(bytes: &[u8], lanes: usize) -> (usize, Option<usize>) {
        // cycle, idle, counters, rng, limit, request_reply, geometry,
        // flits/packet, depth.
        let mut pos = HEADER_LEN + 4 + 4 + 11 * 8 + 4 * 8 + 4 + 1 + 4 * 4 + 2 + 1;
        let mut flit = None;
        for _ in 0..lanes {
            let len = bytes[pos] as usize;
            if len > 0 && flit.is_none() {
                flit = Some(pos + 1);
            }
            pos += 1 + 9 * len;
        }
        (pos, flit)
    }

    #[test]
    fn hostile_snapshots_are_corrupt_not_panics() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mut src = mk_engine(&algo, 3);
        let lanes = src.lanes_per_router;
        while src.banks.in_occ[0] == 0 {
            src.run(1);
        }
        let good = src.snapshot(1).into_bytes();
        let (route, flit) = router0_offsets(&good, lanes);
        let flit = flit.expect("router 0 buffers a flit");
        let word = |at: usize| u32::from_le_bytes(good[at..at + 4].try_into().unwrap());
        assert!(word(route) == u32::MAX || (word(route) as usize) < lanes);
        assert!((word(flit) as usize) < src.packets().len() && good[flit + 8] <= 3);

        let mut target = mk_engine(&algo, 3);
        target.run(40);
        let before = target.state_hash();
        for (what, at, patch) in [
            ("route", route, 200u32.to_le_bytes().to_vec()),
            ("packet", flit, (1u32 << 30).to_le_bytes().to_vec()),
            ("flags", flit + 8, vec![4]),
        ] {
            let mut bytes = good.clone();
            bytes[at..at + patch.len()].copy_from_slice(&patch);
            let body = bytes.len() - TRAILER_LEN;
            let trailer = fnv1a(&bytes[..body]);
            bytes[body..].copy_from_slice(&trailer.to_le_bytes());
            let snap = EngineSnapshot::from_bytes(bytes).expect("resealed envelope is intact");
            let err = target.restore(&snap, 1).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{what}: {err}");
            assert!(!err.to_string().contains('\n'), "{what}: one line");
            assert_eq!(target.state_hash(), before, "{what}: target engine touched");
        }
        // The unpatched bytes still restore.
        let snap = EngineSnapshot::from_bytes(good).unwrap();
        target.restore(&snap, 1).unwrap();
        assert_eq!(target.state_hash(), src.state_hash());
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mut baseline = mk_engine(&algo, 99);
        baseline.run(700);

        let mut first = mk_engine(&algo, 99);
        first.run(250);
        let snap = first.snapshot(0xABCD);
        assert_eq!(snap.cycle(), 250);
        assert_eq!(snap.ident(), 0xABCD);
        assert_eq!(snap.state_hash(), first.state_hash());

        let mut resumed = mk_engine(&algo, 99);
        resumed.restore(&snap, 0xABCD).unwrap();
        assert_eq!(resumed.state_hash(), first.state_hash());
        resumed.run(450);

        assert_eq!(resumed.counters(), baseline.counters());
        assert_eq!(resumed.packets(), baseline.packets());
        assert_eq!(resumed.cycle(), baseline.cycle());
        assert_eq!(resumed.state_hash(), baseline.state_hash());
        assert_eq!(resumed.check_worklist_invariant(), Ok(()));
    }

    #[test]
    fn snapshot_round_trips_through_bytes() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mut eng = mk_engine(&algo, 7);
        eng.run(100);
        let snap = eng.snapshot(1);
        let bytes = snap.as_bytes().to_vec();
        let reread = EngineSnapshot::from_bytes(bytes).unwrap();
        assert_eq!(reread, snap);
        assert_eq!(reread.version(), VERSION);
    }

    #[test]
    fn corrupt_snapshots_are_structured_errors() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mut eng = mk_engine(&algo, 7);
        eng.run(50);
        let good = eng.snapshot(1).into_bytes();

        // Truncation.
        let r = EngineSnapshot::from_bytes(good[..good.len() - 3].to_vec());
        assert!(matches!(r, Err(SnapshotError::Corrupt(_))), "{r:?}");
        // Bit flip mid-state.
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x40;
        assert!(matches!(
            EngineSnapshot::from_bytes(flipped),
            Err(SnapshotError::Corrupt(_))
        ));
        // Bad magic.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            EngineSnapshot::from_bytes(bad_magic),
            Err(SnapshotError::Corrupt(_))
        ));
        // Future version (trailer fixed up so only the version differs).
        let mut future = good.clone();
        future[4..8].copy_from_slice(&2u32.to_le_bytes());
        let body_len = future.len() - TRAILER_LEN;
        let h = fnv1a(&future[..body_len]);
        future[body_len..].copy_from_slice(&h.to_le_bytes());
        assert!(matches!(
            EngineSnapshot::from_bytes(future),
            Err(SnapshotError::Version {
                found: 2,
                expected: VERSION
            })
        ));
        // Errors render as one line (the CLI error contract).
        for e in [
            SnapshotError::Corrupt("x".into()),
            SnapshotError::Version {
                found: 2,
                expected: 1,
            },
            SnapshotError::Mismatch("y".into()),
        ] {
            assert!(!e.to_string().contains('\n'));
        }
    }

    #[test]
    fn restore_rejects_wrong_ident_and_geometry() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mut eng = mk_engine(&algo, 7);
        eng.run(50);
        let snap = eng.snapshot(1);

        let mut other = mk_engine(&algo, 7);
        assert!(matches!(
            other.restore(&snap, 2),
            Err(SnapshotError::Mismatch(_))
        ));

        // A tree engine must refuse a cube snapshot even under the same
        // ident (geometry differs).
        let tree = TreeAdaptive::new(KAryNTree::new(2, 3), 2);
        let mk = |_| -> Box<dyn InjectionProcess> { Box::new(Bernoulli::new(0.04)) };
        let mut tree_eng = Engine::new(&tree, 4, 8, TrafficGen::new(Pattern::Uniform, 8), &mk, 7);
        assert!(matches!(
            tree_eng.restore(&snap, 1),
            Err(SnapshotError::Mismatch(_))
        ));
    }

    #[test]
    fn state_hash_tracks_state() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let mut a = mk_engine(&algo, 5);
        let mut b = mk_engine(&algo, 5);
        assert_eq!(a.state_hash(), b.state_hash());
        a.run(10);
        assert_ne!(a.state_hash(), b.state_hash());
        b.run(10);
        assert_eq!(a.state_hash(), b.state_hash());
    }
}
