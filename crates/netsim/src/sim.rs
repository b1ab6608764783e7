//! Simulation configuration, measurement protocol, and outcomes.
//!
//! Implements the measurement discipline of Section 6: statistics are
//! collected only after a warm-up period "to allow the network to reach
//! steady state", accepted bandwidth is the sustained delivery rate, and
//! network latency is averaged over packets injected during the
//! measurement window (source queueing excluded).

use crate::engine::shard::ShardPlan;
use crate::engine::snapshot::{decode_counters, encode_counters, Dec, Enc};
use crate::engine::snapshot::{EngineSnapshot, SnapshotError};
use crate::engine::{Counters, Engine, Stall};
use crate::fault::{FaultModel, NoFaults};
use crate::flit::{MAX_PACKET, NEVER};
use netstats::cache::fnv1a;
use netstats::{Accumulator, Histogram};
use routing::RoutingAlgorithm;
use telemetry::{NullProbe, Probe};
use traffic::{Bernoulli, InjectionProcess, OnOffBursty, Pattern, Periodic, TrafficGen};

/// Why a checked simulation run could not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The engine's liveness watchdog tripped: flits in flight but no
    /// movement for the watchdog horizon. With the deadlock-free
    /// routing functions this indicates a wedged fault configuration
    /// (or an engine bug), reported as data instead of a panic.
    Deadlock(Stall),
    /// Stepping `requested` more cycles from `cycle` would overflow the
    /// engine's 32-bit clock.
    CycleOverflow {
        /// The engine clock when the segment was requested.
        cycle: u32,
        /// The segment length requested.
        requested: u32,
    },
    /// The run created more packets than a flit can name
    /// ([`MAX_PACKET`]` + 1`); the packet that would have needed the
    /// next id was not created, and the run ended with its cycle.
    PacketIdsExhausted {
        /// The cycle in which a packet could not be created.
        cycle: u32,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(s) => write!(f, "{s}"),
            SimError::CycleOverflow { cycle, requested } => write!(
                f,
                "cycle counter overflow: {requested} more cycles from cycle {cycle} \
                 exceeds the engine's 32-bit clock"
            ),
            SimError::PacketIdsExhausted { cycle } => write!(
                f,
                "packet ids exhausted at cycle {cycle}: a run can create at most {} packets",
                u64::from(MAX_PACKET) + 1
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Why a resumable run could not start or complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The simulation itself failed (deadlock watchdog).
    Sim(SimError),
    /// The checkpoint could not be read or does not match the run
    /// configuration.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Sim(e) => write!(f, "{e}"),
            ResumeError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<SimError> for ResumeError {
    fn from(e: SimError) -> Self {
        ResumeError::Sim(e)
    }
}

impl From<SnapshotError> for ResumeError {
    fn from(e: SnapshotError) -> Self {
        ResumeError::Snapshot(e)
    }
}

/// Run-checkpoint format magic bytes (`NPCK`; the engine-state section
/// inside carries its own `NPSN` envelope).
pub const RUN_SNAPSHOT_MAGIC: [u8; 4] = *b"NPCK";
/// Current run-checkpoint format version.
pub const RUN_SNAPSHOT_VERSION: u32 = 1;

const RUN_HEADER_LEN: usize = 4 + 4; // magic + version
const RUN_TRAILER_LEN: usize = 8;

/// A checkpoint of a run *in measurement-protocol progress*: the full
/// engine snapshot plus the measurement state `measure` has accumulated
/// so far (warm-up counters, per-batch accepted rates, the delivered
/// count at the last batch boundary). Resuming from a `RunSnapshot` and
/// running to completion is bit-identical to the uninterrupted run —
/// same `SimOutcome`, same telemetry JSONL suffix.
///
/// # Binary format (version 1, all integers little-endian)
///
/// ```text
/// magic     b"NPCK"
/// version   u32
/// ident     u64    caller-supplied configuration digest
/// has_warm  u8     1 if the warm-up boundary has passed
/// warm      11×u64 warm-up counters (present only if has_warm = 1)
/// batches   u32    count, then one f64-as-bits u64 per recorded batch
/// prev      u64    delivered-flit count at the last batch boundary
/// engine    u32    length, then an NPSN engine snapshot verbatim
/// trailer   u64    FNV-1a over every preceding byte
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RunSnapshot {
    ident: u64,
    warm: Option<Counters>,
    batch_rates: Vec<f64>,
    prev_delivered: u64,
    engine: EngineSnapshot,
}

impl RunSnapshot {
    /// Serialize the checkpoint (write these bytes to the file).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc { buf: Vec::new() };
        e.buf.extend_from_slice(&RUN_SNAPSHOT_MAGIC);
        e.u32(RUN_SNAPSHOT_VERSION);
        e.u64(self.ident);
        match &self.warm {
            Some(w) => {
                e.u8(1);
                encode_counters(&mut e, w);
            }
            None => e.u8(0),
        }
        e.u32(self.batch_rates.len() as u32);
        for r in &self.batch_rates {
            e.u64(r.to_bits());
        }
        e.u64(self.prev_delivered);
        let engine = self.engine.as_bytes();
        e.u32(engine.len() as u32);
        e.buf.extend_from_slice(engine);
        let trailer = fnv1a(&e.buf);
        e.u64(trailer);
        e.buf
    }

    /// Validate a byte buffer (e.g. read from a checkpoint file) as a
    /// run checkpoint.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < RUN_HEADER_LEN + RUN_TRAILER_LEN {
            return Err(SnapshotError::Corrupt(format!(
                "{} bytes is shorter than the fixed checkpoint envelope",
                bytes.len()
            )));
        }
        if bytes[..4] != RUN_SNAPSHOT_MAGIC {
            return Err(SnapshotError::Corrupt(
                "bad magic (not a run checkpoint)".to_string(),
            ));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != RUN_SNAPSHOT_VERSION {
            return Err(SnapshotError::Version {
                found: version,
                expected: RUN_SNAPSHOT_VERSION,
            });
        }
        let body = &bytes[..bytes.len() - RUN_TRAILER_LEN];
        let stored = u64::from_le_bytes(bytes[bytes.len() - RUN_TRAILER_LEN..].try_into().unwrap());
        if fnv1a(body) != stored {
            return Err(SnapshotError::Corrupt(
                "integrity trailer mismatch (truncated or flipped bytes)".to_string(),
            ));
        }
        let mut d = Dec {
            bytes: &body[RUN_HEADER_LEN..],
            pos: 0,
        };
        let ident = d.u64()?;
        let warm = match d.u8()? {
            0 => None,
            1 => Some(decode_counters(&mut d)?),
            v => {
                return Err(SnapshotError::Corrupt(format!(
                    "warm-counters flag must be 0 or 1, found {v}"
                )))
            }
        };
        let num_batches = d.u32()?;
        if num_batches > NUM_BATCHES {
            return Err(SnapshotError::Corrupt(format!(
                "{num_batches} recorded batches exceeds the protocol's {NUM_BATCHES}"
            )));
        }
        let mut batch_rates = Vec::with_capacity(num_batches as usize);
        for _ in 0..num_batches {
            batch_rates.push(f64::from_bits(d.u64()?));
        }
        let prev_delivered = d.u64()?;
        let engine_len = d.u32()? as usize;
        let engine = EngineSnapshot::from_bytes(d.take(engine_len)?.to_vec())?;
        d.done()?;
        if warm.is_none() && !batch_rates.is_empty() {
            return Err(SnapshotError::Corrupt(
                "batch rates recorded before the warm-up boundary".to_string(),
            ));
        }
        Ok(RunSnapshot {
            ident,
            warm,
            batch_rates,
            prev_delivered,
            engine,
        })
    }

    /// The configuration digest the checkpoint was taken under.
    pub fn ident(&self) -> u64 {
        self.ident
    }

    /// The cycle the checkpoint was taken at (the next cycle to run).
    pub fn cycle(&self) -> u32 {
        self.engine.cycle()
    }

    /// Number of measurement batches already recorded.
    pub fn batches_recorded(&self) -> usize {
        self.batch_rates.len()
    }

    /// Whether the warm-up boundary had passed at checkpoint time.
    pub fn past_warmup(&self) -> bool {
        self.warm.is_some()
    }

    /// State hash of the embedded engine snapshot.
    pub fn state_hash(&self) -> u64 {
        self.engine.state_hash()
    }

    /// The embedded engine snapshot.
    pub fn engine(&self) -> &EngineSnapshot {
        &self.engine
    }
}

/// How one run executes: checkpoint/resume control plus the execution
/// details (shard count, stepper) for [`run_simulation_controlled`].
///
/// None of it is part of the experiment: every shard count and stepper
/// produces bit-identical outcomes, and a checkpoint taken under one
/// resumes under any other. The default-ish form
/// (`RunControl::new(ident)`) is serial, on the default stepper, and
/// neither resumes nor checkpoints: bit-identical to the plain entry
/// points.
pub struct RunControl<'a> {
    /// Configuration digest stamped into every checkpoint and verified
    /// on resume (use `Scenario::state_ident` at the scenario layer).
    pub ident: u64,
    /// Resume point; `None` starts from cycle 0.
    pub resume: Option<RunSnapshot>,
    /// Emit a checkpoint whenever the engine clock reaches a multiple
    /// of this cadence. `None` (or no sink) disables checkpointing.
    pub checkpoint_every: Option<u32>,
    /// Receives each checkpoint as it is taken.
    pub on_checkpoint: Option<&'a mut dyn FnMut(&RunSnapshot)>,
    /// Domain-decompose the run into this many shards stepped with
    /// deterministic phase barriers (see [`Engine::shard_plan`]); `<= 1`
    /// is serial, a count beyond the router count is clamped.
    pub shards: usize,
    /// How the engine scans for work.
    pub stepper: Stepper,
}

impl<'a> RunControl<'a> {
    /// A serial control block on the default stepper that neither
    /// resumes nor checkpoints.
    pub fn new(ident: u64) -> Self {
        RunControl {
            ident,
            resume: None,
            checkpoint_every: None,
            on_checkpoint: None,
            shards: 1,
            stepper: Stepper::Default,
        }
    }
}

/// How packets are created at each node.
#[derive(Clone, Copy, Debug)]
pub enum InjectionSpec {
    /// Bernoulli process (the paper's choice).
    Bernoulli {
        /// Packets per node per cycle.
        packets_per_cycle: f64,
    },
    /// Deterministic: one packet every `period` cycles.
    Periodic {
        /// Inter-arrival period in cycles.
        period: u64,
    },
    /// Two-state bursty process (extension).
    OnOff {
        /// Packets per node per cycle while in the on state.
        peak_rate: f64,
        /// Mean on-state duration in cycles.
        mean_on: f64,
        /// Mean off-state duration in cycles.
        mean_off: f64,
    },
}

impl InjectionSpec {
    /// Long-run packets per node per cycle.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            InjectionSpec::Bernoulli { packets_per_cycle } => packets_per_cycle,
            InjectionSpec::Periodic { period } => 1.0 / period as f64,
            InjectionSpec::OnOff {
                peak_rate,
                mean_on,
                mean_off,
            } => peak_rate * mean_on / (mean_on + mean_off),
        }
    }

    fn build(&self) -> Box<dyn InjectionProcess> {
        match *self {
            InjectionSpec::Bernoulli { packets_per_cycle } => {
                Box::new(Bernoulli::new(packets_per_cycle))
            }
            InjectionSpec::Periodic { period } => Box::new(Periodic::every(period)),
            InjectionSpec::OnOff {
                peak_rate,
                mean_on,
                mean_off,
            } => Box::new(OnOffBursty::new(peak_rate, mean_on, mean_off)),
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Master seed; the run is a pure function of config + seed.
    pub seed: u64,
    /// Warm-up cycles excluded from measurement (paper: 2000).
    pub warmup_cycles: u32,
    /// Total simulated cycles (paper: 20000).
    pub total_cycles: u32,
    /// Lane depth in flits (paper: 4 for both input and output lanes).
    pub buffer_depth: usize,
    /// Flits per packet (16 on the cube, 32 on the tree).
    pub flits_per_packet: u16,
    /// Theoretical per-node capacity in flits/cycle (normalization).
    pub capacity_flits_per_cycle: f64,
    /// Packet creation process.
    pub injection: InjectionSpec,
    /// Destination pattern.
    pub pattern: Pattern,
    /// Limited injection: a node may start a new packet only while
    /// fewer than this many network output lanes of its local router
    /// are allocated (the source-throttling mechanism of the paper's
    /// reference \[28\]). `None` disables the throttle.
    pub injection_limit: Option<u32>,
    /// Request-reply mode (extension): every delivered packet generated
    /// by the pattern is treated as a request and answered with a
    /// same-size reply, modelling shared-memory read traffic.
    pub request_reply: bool,
}

impl SimConfig {
    /// The paper's measurement protocol with the given load.
    pub fn paper_protocol(
        pattern: Pattern,
        injection: InjectionSpec,
        flits_per_packet: u16,
        capacity_flits_per_cycle: f64,
    ) -> Self {
        SimConfig {
            seed: 0x5EED,
            warmup_cycles: 2_000,
            total_cycles: 20_000,
            buffer_depth: 4,
            flits_per_packet,
            capacity_flits_per_cycle,
            injection,
            pattern,
            injection_limit: None,
            request_reply: false,
        }
    }

    /// Nominal offered load as a fraction of capacity.
    pub fn offered_fraction(&self) -> f64 {
        self.injection.mean_rate() * self.flits_per_packet as f64 / self.capacity_flits_per_cycle
    }
}

/// Measured results of one simulation run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Nominal offered load (fraction of capacity) from the config.
    pub offered_fraction: f64,
    /// Offered load actually generated during the measurement window
    /// (differs from nominal for patterns with silent nodes and by
    /// Bernoulli noise).
    pub generated_fraction: f64,
    /// Accepted bandwidth as a fraction of capacity.
    pub accepted_fraction: f64,
    /// Accepted bandwidth in flits per node per cycle.
    pub accepted_flits_per_node_cycle: f64,
    /// Network latency statistics in cycles over measured packets.
    pub latency: Accumulator,
    /// Latency histogram (8-cycle bins up to 4096 cycles).
    pub latency_hist: Histogram,
    /// Packets delivered during the measurement window.
    pub delivered_packets: u64,
    /// Packets created during the measurement window.
    pub created_packets: u64,
    /// Total packets queued at sources (or streaming) when the run ended
    /// — grows without bound above saturation.
    pub backlog_packets: usize,
    /// Fraction of routed headers that used an escape lane.
    pub escape_fraction: f64,
    /// Packets dropped in-network by the fault plane during the
    /// measurement window (same window as `created_packets`); zero
    /// without faults.
    pub dropped_packets: u64,
    /// Packets abandoned at the source (dead endpoint) during the
    /// measurement window; zero without faults.
    pub unroutable_packets: u64,
    /// 95% batch-means confidence interval for the accepted bandwidth
    /// (in flits per node per cycle, 10 batches over the measurement
    /// window).
    pub accepted_ci: netstats::ConfidenceInterval,
}

impl SimOutcome {
    /// Mean latency in cycles (`NaN` if nothing was delivered).
    pub fn mean_latency_cycles(&self) -> f64 {
        self.latency.mean()
    }

    /// Whether the run was saturated: accepted visibly below offered.
    pub fn is_saturated(&self, tol: f64) -> bool {
        self.accepted_fraction < (1.0 - tol) * self.generated_fraction
    }
}

/// Run one simulation to completion under the given configuration.
///
/// Generic over the routing algorithm: calling it with a concrete
/// algorithm type monomorphizes the whole engine (the per-header route
/// call inlines into the routing phase); the historical
/// `&dyn RoutingAlgorithm` form still compiles unchanged.
///
/// # Panics
/// Panics on flow-control violations or deadlock (watchdog) — both are
/// bugs, not outcomes.
pub fn run_simulation<A: RoutingAlgorithm + ?Sized>(algo: &A, cfg: &SimConfig) -> SimOutcome {
    run_simulation_probed(algo, cfg, NullProbe).0
}

/// [`run_simulation`] with a telemetry probe attached to the engine.
///
/// The probe observes the whole run, warm-up included (filter on the
/// recorded injection cycles to restrict analysis to the measurement
/// window), and is returned alongside the outcome. The probe is a pure
/// observer: the outcome is bit-identical to the unprobed run.
pub fn run_simulation_probed<A: RoutingAlgorithm + ?Sized, P: Probe>(
    algo: &A,
    cfg: &SimConfig,
    probe: P,
) -> (SimOutcome, P) {
    run_simulation_faulted(algo, cfg, probe, NoFaults).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_simulation_probed`] with a fault model degrading the network,
/// and the watchdog reporting instead of panicking: a wedged run
/// returns [`SimError::Deadlock`] as data.
///
/// With [`NoFaults`] this is bit-identical to the fault-free run — the
/// engine's fault checks compile out — which is exactly what
/// `run_simulation_probed` calls.
pub fn run_simulation_faulted<A: RoutingAlgorithm + ?Sized, P: Probe, F: FaultModel>(
    algo: &A,
    cfg: &SimConfig,
    probe: P,
    faults: F,
) -> Result<(SimOutcome, P), SimError> {
    let run = |eng: &mut Engine<'_, A, P, F>, cycles| eng.run_checked_wheel(cycles);
    measure(algo, cfg, probe, faults, run, None).map_err(|e| match e {
        ResumeError::Sim(e) => e,
        ResumeError::Snapshot(_) => unreachable!("no checkpoint i/o without a RunControl"),
    })
}

/// How the engine scans for work.
///
/// Either way the run produces bit-identical results — the same
/// counters, packet tables, shared-RNG consumption order, and telemetry
/// streams (the contract is gated by the `engine_equivalence`
/// integration tests). The stepper is therefore an execution detail
/// like the shard count: deliberately absent from manifests and state
/// idents, and snapshots restore under either.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Stepper {
    /// The production kernel: worklist and occupancy-mask scans on the
    /// wheel schedule ([`Engine::run_checked_wheel`]).
    #[default]
    Default,
    /// The audit: the same handlers with every mask- and worklist-based
    /// early-out compiled out, on the every-cycle schedule
    /// ([`Engine::run_checked_reference`]). Exists only in builds with
    /// the `reference-engine` feature (the bench crate and the
    /// workspace root's tests enable it).
    #[cfg(any(test, feature = "reference-engine"))]
    Reference,
}

impl Stepper {
    /// The CLI / display name (`default`, `reference`).
    pub fn name(self) -> &'static str {
        match self {
            Stepper::Default => "default",
            #[cfg(any(test, feature = "reference-engine"))]
            Stepper::Reference => "reference",
        }
    }
}

impl std::fmt::Display for Stepper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Stepper {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "default" => Ok(Stepper::Default),
            #[cfg(any(test, feature = "reference-engine"))]
            "reference" => Ok(Stepper::Reference),
            #[cfg(not(any(test, feature = "reference-engine")))]
            "reference" => Err(
                "the reference stepper needs a build with the `reference-engine` feature \
                 (cargo build --workspace enables it)"
                    .to_string(),
            ),
            _ => Err(format!(
                "unknown stepper {s:?} (expected default or reference)"
            )),
        }
    }
}

/// [`run_simulation_faulted`] with everything about *how* the run
/// executes chosen by the caller in `ctl` — the serving plane's
/// run-level entry point. [`RunControl::shards`] above 1 decomposes
/// the run into that many domains stepped by `threads` worker threads
/// (see [`Engine::shard_plan`]); [`RunControl::stepper`] picks the
/// scan; the rest adds checkpoint/resume control. None of it can change
/// the outcome: every combination is bit-identical, and resuming from a
/// mid-run [`RunSnapshot`] and finishing is bit-identical to the
/// uninterrupted run under any combination, since snapshots capture
/// canonical state.
pub fn run_simulation_controlled<A: RoutingAlgorithm + ?Sized, P: Probe, F>(
    algo: &A,
    cfg: &SimConfig,
    probe: P,
    faults: F,
    threads: usize,
    ctl: &mut RunControl<'_>,
) -> Result<(SimOutcome, P), ResumeError>
where
    F: FaultModel + Sync,
{
    let (shards, stepper) = (ctl.shards, ctl.stepper);
    let mut plan: Option<ShardPlan> = None;
    let run = |eng: &mut Engine<'_, A, P, F>, cycles| {
        if shards > 1 && plan.is_none() {
            plan = Some(eng.shard_plan(shards, threads));
        }
        match (stepper, plan.as_mut()) {
            (Stepper::Default, None) => eng.run_checked_wheel(cycles),
            (Stepper::Default, Some(plan)) => eng.run_checked_wheel_sharded(cycles, plan),
            #[cfg(any(test, feature = "reference-engine"))]
            (Stepper::Reference, None) => eng.run_checked_reference(cycles),
            #[cfg(any(test, feature = "reference-engine"))]
            (Stepper::Reference, Some(plan)) => eng.run_checked_reference_sharded(cycles, plan),
        }
    };
    measure(algo, cfg, probe, faults, run, Some(ctl))
}

/// The number of contiguous batches the measurement window is split
/// into for the batch-means confidence interval (see `netstats::batch`).
const NUM_BATCHES: u32 = 10;

/// A measurement-protocol boundary: the cycle where a segment of the
/// deterministic schedule ends, and what bookkeeping happens there.
enum Boundary {
    /// End of warm-up: capture the warm counters.
    Warm,
    /// End of a measurement batch of `len` cycles: record its accepted
    /// rate.
    Batch { len: u32 },
}

/// Emit a checkpoint if control requests one at the engine's current
/// cycle (a multiple of the cadence; cycle 0 has nothing worth saving).
fn emit_checkpoint<A: RoutingAlgorithm + ?Sized, P: Probe, F: FaultModel>(
    ctl: &mut Option<&mut RunControl<'_>>,
    eng: &mut Engine<'_, A, P, F>,
    warm: Option<&Counters>,
    batch_rates: &[f64],
    prev_delivered: u64,
) {
    let Some(ctl) = ctl.as_deref_mut() else {
        return;
    };
    let Some(every) = ctl.checkpoint_every else {
        return;
    };
    let Some(sink) = ctl.on_checkpoint.as_deref_mut() else {
        return;
    };
    if every == 0 || eng.cycle() == 0 || !eng.cycle().is_multiple_of(every) {
        return;
    }
    let snap = RunSnapshot {
        ident: ctl.ident,
        warm: warm.copied(),
        batch_rates: batch_rates.to_vec(),
        prev_delivered,
        engine: eng.snapshot(ctl.ident),
    };
    sink(&snap);
}

/// Step `eng` by `cycles` through `run`, with the clock arithmetic the
/// engine would otherwise panic on checked here, and a run that ran
/// out of packet ids, reported as data.
fn step_checked<A: RoutingAlgorithm + ?Sized, P: Probe, F: FaultModel>(
    eng: &mut Engine<'_, A, P, F>,
    cycles: u32,
    run: &mut impl FnMut(&mut Engine<'_, A, P, F>, u32) -> Result<(), Stall>,
) -> Result<(), SimError> {
    let cycle = eng.cycle();
    if cycle.checked_add(cycles).is_none() {
        return Err(SimError::CycleOverflow {
            cycle,
            requested: cycles,
        });
    }
    run(eng, cycles).map_err(SimError::Deadlock)?;
    match eng.packet_ids_exhausted() {
        Some(cycle) => Err(SimError::PacketIdsExhausted { cycle }),
        None => Ok(()),
    }
}

/// The shared measurement protocol: build the engine, run the warm-up,
/// run the measurement window in batches through `run` (which chooses
/// schedule, partition and scan), and assemble the outcome — with
/// optional checkpoint/resume control. The protocol is a deterministic
/// segment schedule — warm-up, then [`NUM_BATCHES`] batches of
/// `remaining / (NUM_BATCHES - b)` cycles — so a resumed run rejoins
/// the schedule purely from the engine cycle and the recorded boundary
/// state, and chunking `run` calls at checkpoint cadence cannot perturb
/// the simulation (the engine depends only on total cycles stepped).
fn measure<A: RoutingAlgorithm + ?Sized, P: Probe, F: FaultModel>(
    algo: &A,
    cfg: &SimConfig,
    probe: P,
    faults: F,
    mut run: impl FnMut(&mut Engine<'_, A, P, F>, u32) -> Result<(), Stall>,
    mut ctl: Option<&mut RunControl<'_>>,
) -> Result<(SimOutcome, P), ResumeError> {
    assert!(cfg.warmup_cycles < cfg.total_cycles);
    let num_nodes = algo.topology().num_nodes();
    let pattern = TrafficGen::new(cfg.pattern, num_nodes);
    let injection = cfg.injection;
    let mut eng = Engine::with_probe_and_faults(
        algo,
        cfg.buffer_depth,
        cfg.flits_per_packet,
        pattern,
        &move |_| injection.build(),
        cfg.seed,
        probe,
        faults,
    );
    eng.set_injection_limit(cfg.injection_limit);
    eng.set_request_reply(cfg.request_reply);

    // Measurement state across segments; restored from the checkpoint on
    // resume, fresh-run defaults otherwise.
    let mut warm: Option<Counters> = None;
    let mut batch_rates: Vec<f64> = Vec::new();
    let mut prev_delivered: u64 = 0;
    if let Some(ctl) = ctl.as_deref_mut() {
        if let Some(rs) = ctl.resume.take() {
            if rs.cycle() > cfg.total_cycles {
                return Err(SnapshotError::Mismatch(format!(
                    "checkpoint cycle {} is past the configured run length {}",
                    rs.cycle(),
                    cfg.total_cycles
                ))
                .into());
            }
            eng.restore(&rs.engine, ctl.ident)?;
            warm = rs.warm;
            batch_rates = rs.batch_rates;
            prev_delivered = rs.prev_delivered;
        }
    }

    // The deterministic segment schedule: each entry is (end cycle,
    // boundary action). Zero-length batches record nothing and are not
    // scheduled, matching the historical `if this == 0 { continue; }`.
    let window_cycles = cfg.total_cycles - cfg.warmup_cycles;
    let mut schedule: Vec<(u32, Boundary)> = vec![(cfg.warmup_cycles, Boundary::Warm)];
    let mut acc = cfg.warmup_cycles;
    let mut remaining = window_cycles;
    for b in 0..NUM_BATCHES {
        let this = remaining / (NUM_BATCHES - b);
        remaining -= this;
        if this == 0 {
            continue;
        }
        acc += this;
        schedule.push((acc, Boundary::Batch { len: this }));
    }

    let mut batches_done = batch_rates.len();
    for (end, boundary) in schedule {
        // Segments whose boundary bookkeeping is already in the resume
        // state were completed before the checkpoint; the engine clock
        // is already past them.
        match boundary {
            Boundary::Warm if warm.is_some() => continue,
            Boundary::Batch { .. } if batches_done > 0 => {
                batches_done -= 1;
                continue;
            }
            _ => {}
        }
        debug_assert!(eng.cycle() <= end);
        // Step to the boundary, chunked at the checkpoint cadence when
        // one is requested (one `run` call for the whole segment
        // otherwise — the historical call pattern).
        while eng.cycle() < end {
            let cur = eng.cycle();
            let target = match ctl.as_ref().and_then(|c| c.checkpoint_every) {
                Some(every) if every > 0 => (cur / every + 1)
                    .checked_mul(every)
                    .map_or(end, |t| t.min(end)),
                _ => end,
            };
            step_checked(&mut eng, target - cur, &mut run)?;
            if eng.cycle() < end {
                emit_checkpoint(
                    &mut ctl,
                    &mut eng,
                    warm.as_ref(),
                    &batch_rates,
                    prev_delivered,
                );
            }
        }
        match boundary {
            Boundary::Warm => {
                let w = eng.counters();
                prev_delivered = w.delivered_flits;
                warm = Some(w);
            }
            Boundary::Batch { len } => {
                let now = eng.counters().delivered_flits;
                batch_rates.push((now - prev_delivered) as f64 / (len as f64 * num_nodes as f64));
                prev_delivered = now;
            }
        }
        // A boundary landing exactly on the cadence checkpoints *after*
        // its bookkeeping, so the resumed run skips the whole segment.
        emit_checkpoint(
            &mut ctl,
            &mut eng,
            warm.as_ref(),
            &batch_rates,
            prev_delivered,
        );
    }

    let warm = warm.expect("the warm-up boundary is always scheduled");
    let mut batches = netstats::BatchMeans::new();
    for r in &batch_rates {
        batches.push(*r);
    }
    let end = eng.counters();

    let window = window_cycles as f64;
    let delivered_flits = (end.delivered_flits - warm.delivered_flits) as f64;
    let accepted_rate = delivered_flits / (window * num_nodes as f64);
    let created = end.created_packets - warm.created_packets;
    let generated_rate = created as f64 * cfg.flits_per_packet as f64 / (window * num_nodes as f64);

    let mut latency = Accumulator::new();
    let mut latency_hist = Histogram::new(8.0, 512);
    let mut delivered_measured = 0u64;
    for p in eng.packets() {
        if p.injected == NEVER || p.injected < cfg.warmup_cycles {
            continue;
        }
        if let Some(l) = p.latency() {
            latency.push(l as f64);
            latency_hist.record(l as f64);
            delivered_measured += 1;
        }
    }

    let routed = end.routed_headers.max(1);
    let outcome = SimOutcome {
        offered_fraction: cfg.offered_fraction(),
        generated_fraction: generated_rate / cfg.capacity_flits_per_cycle,
        accepted_fraction: accepted_rate / cfg.capacity_flits_per_cycle,
        accepted_flits_per_node_cycle: accepted_rate,
        latency,
        latency_hist,
        delivered_packets: delivered_measured,
        created_packets: created,
        backlog_packets: eng.source_queue_len(),
        escape_fraction: end.escape_routings as f64 / routed as f64,
        dropped_packets: end.dropped_packets - warm.dropped_packets,
        unroutable_packets: end.unroutable_packets - warm.unroutable_packets,
        accepted_ci: batches.ci95(),
    };
    Ok((outcome, eng.into_probe()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing::{CubeDeterministic, CubeDuato, TreeAdaptive};
    use topology::{KAryNCube, KAryNTree};

    fn quick(pattern: Pattern, rate: f64, flits: u16, cap: f64) -> SimConfig {
        SimConfig {
            seed: 1,
            warmup_cycles: 500,
            total_cycles: 4000,
            buffer_depth: 4,
            flits_per_packet: flits,
            capacity_flits_per_cycle: cap,
            injection: InjectionSpec::Bernoulli {
                packets_per_cycle: rate,
            },
            pattern,
            injection_limit: None,
            request_reply: false,
        }
    }

    #[test]
    fn below_saturation_accepted_tracks_offered() {
        // Small cube, Duato, 20% load: open-loop equilibrium.
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let cap = 2.0; // 8/k for k=4, capped at... 8/4 = 2 -> use raw
        let cfg = quick(Pattern::Uniform, 0.2 * cap / 16.0, 16, cap);
        let out = run_simulation(&algo, &cfg);
        assert!(!out.is_saturated(0.05), "20% load must not saturate");
        assert!(
            (out.accepted_fraction - out.generated_fraction).abs() < 0.02,
            "accepted {} vs generated {}",
            out.accepted_fraction,
            out.generated_fraction
        );
        assert!(out.latency.mean() > 10.0);
        assert!(out.delivered_packets > 100);
    }

    #[test]
    fn saturation_shows_backlog_and_gap() {
        // Drive the small cube way past capacity.
        let algo = CubeDeterministic::new(KAryNCube::new(4, 2));
        let cube_cap = KAryNCube::new(4, 2).uniform_capacity_flits_per_cycle();
        let cfg = quick(Pattern::Uniform, 2.0 * cube_cap / 16.0, 16, cube_cap);
        let out = run_simulation(&algo, &cfg);
        assert!(out.is_saturated(0.02));
        assert!(out.backlog_packets > 50, "backlog {}", out.backlog_packets);
        assert!(out.accepted_fraction < 1.0);
        assert!(out.accepted_fraction > 0.2, "network still moves packets");
    }

    #[test]
    fn tree_accepts_more_with_more_vcs_under_uniform_pressure() {
        // The paper's core flow-control result, on a small tree at high
        // load: more virtual channels => more accepted bandwidth.
        let tree = KAryNTree::new(2, 4); // 16 nodes
        let mut accepted = Vec::new();
        for vcs in [1usize, 4] {
            let algo = TreeAdaptive::new(tree.clone(), vcs);
            let cfg = SimConfig {
                seed: 2,
                warmup_cycles: 1000,
                total_cycles: 8000,
                buffer_depth: 4,
                flits_per_packet: 32,
                capacity_flits_per_cycle: 1.0,
                injection: InjectionSpec::Bernoulli {
                    packets_per_cycle: 0.9 / 32.0,
                },
                pattern: Pattern::Uniform,
                injection_limit: None,
                request_reply: false,
            };
            accepted.push(run_simulation(&algo, &cfg).accepted_fraction);
        }
        assert!(
            accepted[1] > accepted[0] * 1.15,
            "4 VCs ({}) should clearly beat 1 VC ({})",
            accepted[1],
            accepted[0]
        );
    }

    #[test]
    fn offered_fraction_roundtrip() {
        let cfg = quick(Pattern::Uniform, 0.5 / 32.0, 32, 1.0);
        assert!((cfg.offered_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn injection_spec_rates() {
        assert!(
            (InjectionSpec::Bernoulli {
                packets_per_cycle: 0.25
            }
            .mean_rate()
                - 0.25)
                .abs()
                < 1e-12
        );
        assert!((InjectionSpec::Periodic { period: 8 }.mean_rate() - 0.125).abs() < 1e-12);
        let oo = InjectionSpec::OnOff {
            peak_rate: 0.5,
            mean_on: 100.0,
            mean_off: 300.0,
        };
        assert!((oo.mean_rate() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn controlled_without_checkpointing_matches_plain_run() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let cfg = quick(Pattern::Uniform, 0.3 * 2.0 / 16.0, 16, 2.0);
        let plain = run_simulation(&algo, &cfg);
        let mut ctl = RunControl::new(7);
        let (controlled, _) =
            run_simulation_controlled(&algo, &cfg, NullProbe, NoFaults, 1, &mut ctl).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{controlled:?}"));
    }

    #[test]
    fn checkpoint_resume_reproduces_the_uninterrupted_outcome() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let cfg = quick(Pattern::Uniform, 0.4 * 2.0 / 16.0, 16, 2.0);
        let baseline = run_simulation(&algo, &cfg);

        // Checkpoint at a cadence that is deliberately not aligned with
        // the segment schedule (500-cycle warm-up, 350-cycle batches).
        let mut taken: Vec<RunSnapshot> = Vec::new();
        let mut sink = |s: &RunSnapshot| taken.push(s.clone());
        let mut ctl = RunControl::new(42);
        ctl.checkpoint_every = Some(700);
        ctl.on_checkpoint = Some(&mut sink);
        let (full, _) =
            run_simulation_controlled(&algo, &cfg, NullProbe, NoFaults, 1, &mut ctl).unwrap();
        assert_eq!(format!("{baseline:?}"), format!("{full:?}"));
        assert!(taken.len() >= 3, "expected several checkpoints");

        // Resume from every checkpoint — mid-warm-up, mid-batch, and on
        // boundaries alike — through a serialization round-trip.
        for snap in &taken {
            let restored = RunSnapshot::from_bytes(&snap.to_bytes()).unwrap();
            assert_eq!(&restored, snap);
            let mut ctl = RunControl::new(42);
            ctl.resume = Some(restored);
            let (resumed, _) =
                run_simulation_controlled(&algo, &cfg, NullProbe, NoFaults, 1, &mut ctl).unwrap();
            assert_eq!(
                format!("{baseline:?}"),
                format!("{resumed:?}"),
                "resume from cycle {} diverged",
                snap.cycle()
            );
        }
    }

    #[test]
    fn resume_rejects_wrong_ident_and_corrupt_checkpoints() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let cfg = quick(Pattern::Uniform, 0.2 * 2.0 / 16.0, 16, 2.0);
        let mut taken: Vec<RunSnapshot> = Vec::new();
        let mut sink = |s: &RunSnapshot| taken.push(s.clone());
        let mut ctl = RunControl::new(1);
        ctl.checkpoint_every = Some(1000);
        ctl.on_checkpoint = Some(&mut sink);
        run_simulation_controlled(&algo, &cfg, NullProbe, NoFaults, 1, &mut ctl).unwrap();
        let snap = taken.pop().expect("at least one checkpoint");

        // Wrong ident: structured mismatch, not a panic.
        let mut ctl = RunControl::new(2);
        ctl.resume = Some(snap.clone());
        let err =
            run_simulation_controlled(&algo, &cfg, NullProbe, NoFaults, 1, &mut ctl).unwrap_err();
        assert!(matches!(
            err,
            ResumeError::Snapshot(SnapshotError::Mismatch(_))
        ));

        // Corruption in the run-level envelope.
        let mut bytes = snap.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            RunSnapshot::from_bytes(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
        bytes[mid] ^= 0x10;
        assert!(RunSnapshot::from_bytes(&bytes).is_ok());
        let truncated = &bytes[..bytes.len() - 9];
        assert!(matches!(
            RunSnapshot::from_bytes(truncated),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert!(matches!(
            RunSnapshot::from_bytes(&wrong_version),
            Err(SnapshotError::Corrupt(_) | SnapshotError::Version { .. })
        ));
    }

    #[test]
    fn zero_load_runs_clean() {
        let algo = CubeDuato::new(KAryNCube::new(4, 2));
        let cfg = quick(Pattern::Uniform, 0.0, 16, 2.0);
        let out = run_simulation(&algo, &cfg);
        assert_eq!(out.delivered_packets, 0);
        assert_eq!(out.accepted_fraction, 0.0);
        assert!(out.latency.mean().is_nan());
    }
}
