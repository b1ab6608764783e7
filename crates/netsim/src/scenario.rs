//! The scenario plane: one compositional description of an experiment.
//!
//! The paper's method is a sweep of a *design space* — topology ×
//! routing algorithm × virtual-channel count × traffic pattern × offered
//! load — under a common physical normalization. A [`Scenario`] captures
//! one point of that space (everything except the offered load, which
//! stays a sweep variable) and is the single source of truth behind
//! every frontend: the `netperf` CLI and `serve` loop (through
//! [`crate::request`]), the `bench` regenerator binaries, the examples
//! and the tests all build their [`SimConfig`]s through it.
//!
//! The pieces:
//!
//! * [`TopologySpec`] / [`RoutingKind`] — the discrete axes, with
//!   parse/name round-trips for CLI use;
//! * [`ScenarioBuilder`] — validating construction: only meaningful
//!   (topology, routing, VC) combinations are accepted, Chien timings
//!   are *derived* from the shape via [`costmodel::chien::RouterClass`]
//!   rather than hand-picked, and bit-pattern traffic is rejected on
//!   non-power-of-two node counts before the simulator can panic;
//! * the **named-scenario registry** ([`registry`], [`named`]) — the
//!   five paper configurations are plain entries here (plus a few
//!   extension entries), not enum arms;
//! * run helpers — [`Scenario::simulate`] and
//!   [`Scenario::sweep_outcomes`] monomorphize the engine per routing
//!   algorithm and fan load points out over worker threads;
//! * [`Scenario::manifest`] — the machine-readable description embedded
//!   in every run manifest artifact.
//!
//! Reproducibility contract: with [`SeedMode::Derived`] and salt 0 a
//! scenario labelled like one of the paper's configurations produces
//! **bit-identical** counters to the pre-scenario experiment harness
//! (the seed is an FNV-1a hash of label, pattern and load, the timing
//! derivations reproduce Tables 1 and 2 exactly, and the injection
//! throttle follows the same rule). `tests/scenario_equivalence.rs`
//! pins this against goldens captured before the refactor.
//!
//! Degradation: [`ScenarioBuilder::faults`] attaches a
//! [`FaultPlan`] (validated against the topology at build time); the
//! run helpers then compile it per run and use the faulted engine
//! path, and the `try_*` variants report a wedged run as a structured
//! [`SimError`] instead of panicking.

#![deny(missing_docs)]

use crate::fault::{FaultModel, FaultPlan, NoFaults};
use crate::sim::{
    run_simulation_controlled, InjectionSpec, ResumeError, RunControl, SimConfig, SimError,
    SimOutcome, Stepper,
};
use crate::wiring::Wiring;
use costmodel::chien::RouterClass;
use costmodel::normalize::NetworkNormalization;
use netstats::export::{Manifest, ManifestValue};
use routing::{
    CubeDeterministic, CubeDuato, MeshAdaptive, MeshDeterministic, RoutingAlgorithm,
    TaperedTreeAdaptive, ThcDeterministic, TreeAdaptive,
};
use telemetry::{FlightRecorder, Geometry, NullProbe, Probe, TelemetryConfig};
use topology::{FamilyShape, KAryNCube, KAryNMesh, KAryNTree, TaperedKAryNTree, TorusHypercube};
use traffic::Pattern;

/// One axis of the design space: the network family and its shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// k-ary n-cube (torus): `k^n` nodes, 4-byte flits.
    Cube {
        /// Radix (nodes per dimension).
        k: usize,
        /// Dimension.
        n: usize,
    },
    /// k-ary n-tree (fat-tree): `k^n` processing nodes, 2-byte flits.
    Tree {
        /// Arity.
        k: usize,
        /// Levels.
        n: usize,
    },
    /// k-ary n-mesh (torus without wrap-around links), 4-byte flits.
    Mesh {
        /// Radix.
        k: usize,
        /// Dimension.
        n: usize,
    },
    /// Tapered k-ary n-tree: `ceil(k/taper)` up links per switch,
    /// 2-byte flits like the full tree.
    TaperedTree {
        /// Arity.
        k: usize,
        /// Levels.
        n: usize,
        /// Oversubscription ratio (>= 1; 1 wires the full tree).
        taper: usize,
    },
    /// Torus-embedded hypercube: a `k x k` torus crossed with a
    /// `d`-dimensional binary cube, 4-byte flits like the cube.
    Thc {
        /// Torus radix.
        k: usize,
        /// Binary (hypercube) dimension count.
        d: usize,
    },
}

impl TopologySpec {
    /// A k-ary n-cube.
    pub fn cube(k: usize, n: usize) -> Self {
        TopologySpec::Cube { k, n }
    }

    /// A k-ary n-tree.
    pub fn tree(k: usize, n: usize) -> Self {
        TopologySpec::Tree { k, n }
    }

    /// A k-ary n-mesh.
    pub fn mesh(k: usize, n: usize) -> Self {
        TopologySpec::Mesh { k, n }
    }

    /// A tapered k-ary n-tree with the given oversubscription ratio.
    pub fn tapered_tree(k: usize, n: usize, taper: usize) -> Self {
        TopologySpec::TaperedTree { k, n, taper }
    }

    /// A torus-embedded hypercube: `k x k` torus crossed with a
    /// `d`-dimensional binary cube.
    pub fn thc(k: usize, d: usize) -> Self {
        TopologySpec::Thc { k, d }
    }

    /// Family slug as used by the CLI — the canonical name of the entry
    /// in [`topology::families`], so parse → `family()` → parse is a
    /// fixed point.
    pub fn family(&self) -> &'static str {
        match self {
            TopologySpec::Cube { .. } => "cube",
            TopologySpec::Tree { .. } => "tree",
            TopologySpec::Mesh { .. } => "mesh",
            TopologySpec::TaperedTree { .. } => "tapered-tree",
            TopologySpec::Thc { .. } => "thc",
        }
    }

    /// Build a spec from a CLI family name plus shape. Accepts every
    /// alias registered in [`topology::families`] (e.g. `torus` for
    /// `cube`, `fat-tree` for `tree`). For the tapered tree, `n` counts
    /// levels and the canonical 2:1 taper is assumed (override with
    /// [`TopologySpec::with_taper`]); for the THC, `n` is the binary
    /// dimension count `d`.
    pub fn parse(family: &str, k: usize, n: usize) -> Option<Self> {
        Some(match topology::family(family)?.slug {
            "cube" => TopologySpec::cube(k, n),
            "tree" => TopologySpec::tree(k, n),
            "mesh" => TopologySpec::mesh(k, n),
            "tapered-tree" => TopologySpec::tapered_tree(k, n, 2),
            "thc" => TopologySpec::thc(k, n),
            other => unreachable!("family {other} registered but not mapped to a spec"),
        })
    }

    /// The radix/arity.
    pub fn k(&self) -> usize {
        match *self {
            TopologySpec::Cube { k, .. }
            | TopologySpec::Tree { k, .. }
            | TopologySpec::Mesh { k, .. }
            | TopologySpec::TaperedTree { k, .. }
            | TopologySpec::Thc { k, .. } => k,
        }
    }

    /// The dimension/level count (the binary dimension count for the
    /// THC).
    pub fn n(&self) -> usize {
        match *self {
            TopologySpec::Cube { n, .. }
            | TopologySpec::Tree { n, .. }
            | TopologySpec::Mesh { n, .. }
            | TopologySpec::TaperedTree { n, .. } => n,
            TopologySpec::Thc { d, .. } => d,
        }
    }

    /// The oversubscription ratio: 1 for every family except the
    /// tapered tree.
    pub fn taper(&self) -> usize {
        match *self {
            TopologySpec::TaperedTree { taper, .. } => taper,
            _ => 1,
        }
    }

    /// Same spec with the taper replaced; `None` for families without a
    /// taper axis.
    pub fn with_taper(self, taper: usize) -> Option<Self> {
        match self {
            TopologySpec::TaperedTree { k, n, .. } => Some(TopologySpec::tapered_tree(k, n, taper)),
            _ => None,
        }
    }

    /// The generic shape axes this spec instantiates its family with.
    fn family_shape(&self) -> FamilyShape {
        FamilyShape {
            k: self.k(),
            n: self.n(),
            taper: self.taper(),
        }
    }

    /// The registered family row backing this spec.
    fn family_entry(&self) -> &'static topology::Family {
        topology::family(self.family()).expect("every spec family is registered")
    }

    /// Number of processing nodes (`k^n`; `k^2 · 2^d` for the THC) —
    /// delegated to the family table so the spec and the topology can
    /// never disagree.
    pub fn num_nodes(&self) -> usize {
        (self.family_entry().num_nodes)(&self.family_shape())
    }

    /// Builds the topology instance this spec describes, through the
    /// family registry.
    pub fn build(&self) -> Box<dyn topology::Topology> {
        (self.family_entry().build)(&self.family_shape())
    }

    /// Number of routers/switches (requires building the instance;
    /// construction is O(shape), not O(nodes)).
    pub fn num_routers(&self) -> usize {
        self.build().num_routers()
    }

    /// Bidirectional links across the canonical bisection; `None` where
    /// the canonical cut is undefined (odd radix on grid/tree families).
    pub fn bisection_links(&self) -> Option<usize> {
        match *self {
            TopologySpec::Thc { k, d } => Some(TorusHypercube::new(k, d).bisection_links()),
            spec if !spec.k().is_multiple_of(2) => None,
            TopologySpec::Cube { k, n } => Some(KAryNCube::new(k, n).bisection_links()),
            TopologySpec::Tree { k, n } => Some(KAryNTree::new(k, n).bisection_links()),
            TopologySpec::Mesh { k, n } => Some(KAryNMesh::new(k, n).bisection_links()),
            TopologySpec::TaperedTree { k, n, taper } => {
                Some(TaperedKAryNTree::new(k, n, taper).bisection_links())
            }
        }
    }

    /// Short human-readable description, e.g. `16-ary 2-cube`.
    pub fn describe(&self) -> String {
        match self {
            TopologySpec::Cube { k, n } => format!("{k}-ary {n}-cube"),
            TopologySpec::Tree { k, n } => format!("{k}-ary {n}-tree"),
            TopologySpec::Mesh { k, n } => format!("{k}-ary {n}-mesh"),
            TopologySpec::TaperedTree { k, n, taper } => {
                format!("{k}-ary {n}-tree (taper {taper})")
            }
            TopologySpec::Thc { k, d } => format!("{k}x{k} torus x {d}-cube"),
        }
    }
}

/// The routing-algorithm axis of the design space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingKind {
    /// Dimension-order deterministic routing (cube or mesh).
    Deterministic,
    /// Duato's minimal adaptive routing (cube only).
    Duato,
    /// Minimal adaptive routing (tree ascending-phase or mesh escape
    /// scheme).
    Adaptive,
}

impl RoutingKind {
    /// Stable lowercase name as used by the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingKind::Deterministic => "det",
            RoutingKind::Duato => "duato",
            RoutingKind::Adaptive => "adaptive",
        }
    }

    /// Parse a CLI algorithm name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "det" | "deterministic" | "dor" => RoutingKind::Deterministic,
            "duato" => RoutingKind::Duato,
            "adaptive" => RoutingKind::Adaptive,
            _ => return None,
        })
    }
}

/// Run-length of a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunLength {
    /// Warm-up cycles excluded from measurement.
    pub warmup: u32,
    /// Total cycles.
    pub total: u32,
}

impl RunLength {
    /// The paper's protocol: 2000 warm-up, halt at 20000.
    pub fn paper() -> Self {
        RunLength {
            warmup: 2_000,
            total: 20_000,
        }
    }

    /// A shorter protocol for tests and quick looks (noisier).
    pub fn quick() -> Self {
        RunLength {
            warmup: 1_000,
            total: 6_000,
        }
    }
}

/// How the per-run RNG seed is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedMode {
    /// Derived from (label, pattern, load) by FNV-1a, XOR'd with a
    /// caller-chosen salt. Salt 0 reproduces the historical
    /// harness seeds bit-for-bit; any other salt yields an
    /// independent but equally reproducible noise realization.
    Derived {
        /// XOR'd into the derived seed.
        salt: u64,
    },
    /// One fixed seed for every load point (the CLI's historical
    /// behavior).
    Fixed(u64),
}

impl Default for SeedMode {
    fn default() -> Self {
        SeedMode::Derived { salt: 0 }
    }
}

/// Source-throttling policy (the limited-injection mechanism of the
/// paper's reference \[28\]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Throttle {
    /// The paper's rule: on cubes, hold new packets while `n · V` (half)
    /// of the router's `2n·V` network output lanes are allocated; trees
    /// and meshes run unthrottled.
    Auto,
    /// Never throttle.
    Off,
    /// Throttle at an explicit lane-allocation threshold.
    Limit(u32),
}

/// The packet-creation process, parameterized by the offered load at
/// sweep time (the long-run rate always matches the load; the shape of
/// the arrival process is what varies).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InjectionModel {
    /// Bernoulli arrivals (the paper's choice).
    Bernoulli,
    /// Deterministic arrivals: one packet every `round(1/rate)` cycles.
    Periodic,
    /// Two-state bursty arrivals with the given mean on/off durations in
    /// cycles; the on-state peak rate is scaled so the long-run mean
    /// equals the offered load.
    OnOff {
        /// Mean on-state duration in cycles.
        mean_on: f64,
        /// Mean off-state duration in cycles.
        mean_off: f64,
    },
}

impl InjectionModel {
    fn spec_at(&self, packets_per_cycle: f64) -> InjectionSpec {
        match *self {
            InjectionModel::Bernoulli => InjectionSpec::Bernoulli { packets_per_cycle },
            InjectionModel::Periodic => InjectionSpec::Periodic {
                period: (1.0 / packets_per_cycle).round().max(1.0) as u64,
            },
            InjectionModel::OnOff { mean_on, mean_off } => InjectionSpec::OnOff {
                peak_rate: packets_per_cycle * (mean_on + mean_off) / mean_on,
                mean_on,
                mean_off,
            },
        }
    }

    fn name(&self) -> &'static str {
        match self {
            InjectionModel::Bernoulli => "bernoulli",
            InjectionModel::Periodic => "periodic",
            InjectionModel::OnOff { .. } => "onoff",
        }
    }
}

/// Largest network a scenario may describe, as log2 of the node count:
/// the scale registry entries top out at 2^14, and engine state runs to
/// ~15 KiB per node, so 2^18 nodes is already a 4 GiB simulation.
const MAX_LOG2_NODES: f64 = 18.0;

/// Why a [`ScenarioBuilder`] refused to build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// No topology was given.
    MissingTopology,
    /// The topology shape is degenerate.
    BadShape(String),
    /// The (topology, routing) pair has no implementation.
    UnsupportedCombination(String),
    /// The VC count is illegal for the chosen algorithm.
    BadVcs(String),
    /// The traffic pattern cannot run on this node count.
    BadPattern(String),
    /// Packet size, buffer depth or run length is out of range.
    BadParameter(String),
    /// The attached fault plan does not fit this topology.
    BadFaults(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::MissingTopology => write!(f, "no topology given"),
            ScenarioError::BadShape(m)
            | ScenarioError::UnsupportedCombination(m)
            | ScenarioError::BadVcs(m)
            | ScenarioError::BadPattern(m)
            | ScenarioError::BadParameter(m)
            | ScenarioError::BadFaults(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One point of the design space, minus the offered load (which stays a
/// sweep variable). Build with [`Scenario::builder`] or look one up in
/// the [`registry`].
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    label: String,
    topology: TopologySpec,
    routing: RoutingKind,
    vcs: usize,
    pattern: Pattern,
    injection: InjectionModel,
    run_length: RunLength,
    seed: SeedMode,
    buffer_depth: usize,
    packet_bytes: usize,
    throttle: Throttle,
    telemetry: Option<TelemetryConfig>,
    faults: Option<FaultPlan>,
    shards: usize,
    stepper: Stepper,
}

/// Validating builder for [`Scenario`].
#[derive(Clone, Debug, Default)]
pub struct ScenarioBuilder {
    label: Option<String>,
    topology: Option<TopologySpec>,
    routing: Option<RoutingKind>,
    vcs: Option<usize>,
    pattern: Option<Pattern>,
    injection: Option<InjectionModel>,
    run_length: Option<RunLength>,
    seed: Option<SeedMode>,
    buffer_depth: Option<usize>,
    packet_bytes: Option<usize>,
    throttle: Option<Throttle>,
    telemetry: Option<TelemetryConfig>,
    faults: Option<FaultPlan>,
    shards: Option<usize>,
    stepper: Option<Stepper>,
}

impl ScenarioBuilder {
    /// Start from all defaults (everything optional except the topology).
    pub fn new() -> Self {
        ScenarioBuilder::default()
    }

    /// Set the network topology (required).
    pub fn topology(mut self, t: TopologySpec) -> Self {
        self.topology = Some(t);
        self
    }

    /// Set the routing algorithm. Default: the family's paper algorithm
    /// (Duato on cubes, adaptive on trees, deterministic on meshes).
    pub fn routing(mut self, r: RoutingKind) -> Self {
        self.routing = Some(r);
        self
    }

    /// Set the virtual-channel count. Default: 4.
    pub fn vcs(mut self, vcs: usize) -> Self {
        self.vcs = Some(vcs);
        self
    }

    /// Set the traffic pattern. Default: uniform.
    pub fn pattern(mut self, p: Pattern) -> Self {
        self.pattern = Some(p);
        self
    }

    /// Set the injection process shape. Default: Bernoulli.
    pub fn injection(mut self, i: InjectionModel) -> Self {
        self.injection = Some(i);
        self
    }

    /// Set the run length. Default: the paper protocol.
    pub fn run_length(mut self, len: RunLength) -> Self {
        self.run_length = Some(len);
        self
    }

    /// Set the seeding policy. Default: derived, salt 0.
    pub fn seed(mut self, s: SeedMode) -> Self {
        self.seed = Some(s);
        self
    }

    /// Set the lane depth in flits. Default: 4 (the paper's).
    pub fn buffer_depth(mut self, d: usize) -> Self {
        self.buffer_depth = Some(d);
        self
    }

    /// Set the packet size in bytes. Default: 64 (the paper's).
    pub fn packet_bytes(mut self, b: usize) -> Self {
        self.packet_bytes = Some(b);
        self
    }

    /// Set the source-throttling policy. Default: the paper's rule.
    pub fn throttle(mut self, t: Throttle) -> Self {
        self.throttle = Some(t);
        self
    }

    /// Attach a telemetry configuration: [`Scenario::simulate_traced`]
    /// will record with these settings, and the config is embedded in
    /// run manifests. Default: none (untraced; `simulate_traced` then
    /// falls back to [`TelemetryConfig::default`]). Telemetry is a pure
    /// observation overlay — it never changes simulation results.
    pub fn telemetry(mut self, t: TelemetryConfig) -> Self {
        self.telemetry = Some(t);
        self
    }

    /// Attach a fault plan: deterministic dead links / dead routers /
    /// transient outages, sampled from the plan's own seed and
    /// validated against the topology when the scenario is built. An
    /// empty plan (`FaultPlan::default()`) is accepted and behaves
    /// bit-identically to no plan at all. Default: none (healthy
    /// network, fault machinery compiled out of the hot path).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Domain-decompose each run into this many shards, stepped with
    /// deterministic phase barriers (see
    /// [`Engine::shard_plan`](crate::engine::Engine::shard_plan)).
    /// Sharding is an execution detail, not an experiment axis: every
    /// shard count produces bit-identical outcomes, manifests, and
    /// traces, so it is deliberately absent from [`Scenario::manifest`].
    /// Default: 1 (serial). A request beyond the router
    /// count is clamped at run time with a warning; 0 is rejected at
    /// build time.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// Choose how the engine scans for work: the production kernel, or
    /// the `reference` audit of it. Like the shard count, the stepper
    /// is an execution detail, not an experiment axis: either choice
    /// produces bit-identical outcomes, manifests, and traces (gated by
    /// the `engine_equivalence` tests), so it is deliberately absent
    /// from [`Scenario::manifest`] and [`Scenario::state_ident`], and
    /// it composes with any shard count. Default: [`Stepper::Default`].
    pub fn stepper(mut self, s: Stepper) -> Self {
        self.stepper = Some(s);
        self
    }

    /// Override the display label (defaults to the paper's legend text
    /// for the chosen configuration). The label feeds the derived seed,
    /// so two scenarios differing only in label get independent noise.
    pub fn label(mut self, l: impl Into<String>) -> Self {
        self.label = Some(l.into());
        self
    }

    /// Validate and build the scenario.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let topology = self.topology.ok_or(ScenarioError::MissingTopology)?;
        let (k, n) = (topology.k(), topology.n());
        if k < 2 || n < 1 {
            return Err(ScenarioError::BadShape(format!(
                "degenerate {} shape: k = {k}, n = {n} (need k >= 2, n >= 1)",
                topology.family()
            )));
        }
        // Bound the network before anything is sized from it: a shape
        // whose node count overflows panics in the topology crate, and
        // one that merely fits asks for an allocation that aborts.
        let log2_nodes = match topology {
            TopologySpec::Thc { k, d } => 2.0 * (k as f64).log2() + d as f64,
            _ => n as f64 * (k as f64).log2(),
        };
        if log2_nodes > MAX_LOG2_NODES {
            return Err(ScenarioError::BadShape(format!(
                "{} k = {k}, n = {n} has more than 2^{MAX_LOG2_NODES} nodes",
                topology.family()
            )));
        }
        if topology.taper() < 1 {
            return Err(ScenarioError::BadShape(format!(
                "taper must be >= 1, got {}",
                topology.taper()
            )));
        }
        let routing = self.routing.unwrap_or(match topology {
            TopologySpec::Cube { .. } => RoutingKind::Duato,
            TopologySpec::Tree { .. } | TopologySpec::TaperedTree { .. } => RoutingKind::Adaptive,
            TopologySpec::Mesh { .. } | TopologySpec::Thc { .. } => RoutingKind::Deterministic,
        });
        let vcs = self.vcs.unwrap_or(4);
        match (topology, routing) {
            (TopologySpec::Cube { .. }, RoutingKind::Deterministic | RoutingKind::Duato) => {
                // The cube routers implement the paper's fixed 4-lane
                // design (two virtual networks / 2+2 adaptive-escape).
                if vcs != 4 {
                    return Err(ScenarioError::BadVcs(format!(
                        "cube routing is defined for exactly 4 virtual channels, got {vcs}"
                    )));
                }
            }
            (TopologySpec::Tree { .. }, RoutingKind::Adaptive) => {
                if vcs < 1 {
                    return Err(ScenarioError::BadVcs(
                        "tree-adaptive needs at least one virtual channel".into(),
                    ));
                }
            }
            (TopologySpec::TaperedTree { .. }, RoutingKind::Adaptive) => {
                if vcs < 1 {
                    return Err(ScenarioError::BadVcs(
                        "tapered-tree-adaptive needs at least one virtual channel".into(),
                    ));
                }
            }
            (TopologySpec::Mesh { .. }, RoutingKind::Deterministic) => {
                if vcs < 1 {
                    return Err(ScenarioError::BadVcs(
                        "mesh-deterministic needs at least one virtual channel".into(),
                    ));
                }
            }
            (TopologySpec::Mesh { .. }, RoutingKind::Adaptive) => {
                if vcs < 2 {
                    return Err(ScenarioError::BadVcs(
                        "mesh-adaptive needs an escape lane: at least 2 virtual channels".into(),
                    ));
                }
            }
            (TopologySpec::Thc { .. }, RoutingKind::Deterministic) => {
                // Same two-virtual-network dateline design as the cube.
                if vcs != 4 {
                    return Err(ScenarioError::BadVcs(format!(
                        "thc routing is defined for exactly 4 virtual channels, got {vcs}"
                    )));
                }
            }
            (t, r) => {
                return Err(ScenarioError::UnsupportedCombination(format!(
                    "no {} routing on the {}; supported: cube+det, cube+duato, \
                     tree+adaptive, tapered-tree+adaptive, mesh+det, mesh+adaptive, thc+det",
                    r.name(),
                    t.family()
                )));
            }
        }
        let pattern = self.pattern.unwrap_or(Pattern::Uniform);
        let nodes = topology.num_nodes();
        let bit_defined = matches!(
            pattern,
            Pattern::Complement
                | Pattern::BitReversal
                | Pattern::Transpose
                | Pattern::Shuffle
                | Pattern::Butterfly
        );
        if bit_defined && !nodes.is_power_of_two() {
            return Err(ScenarioError::BadPattern(format!(
                "{} traffic needs a power-of-two node count, got {nodes}",
                pattern.name()
            )));
        }
        if let Pattern::HotSpot { hot, .. } = pattern {
            if hot as usize >= nodes {
                return Err(ScenarioError::BadPattern(format!(
                    "hot-spot node {hot} out of range for {nodes} nodes"
                )));
            }
        }
        let run_length = self.run_length.unwrap_or_else(RunLength::paper);
        if run_length.warmup >= run_length.total {
            return Err(ScenarioError::BadParameter(format!(
                "warm-up ({}) must be shorter than the run ({})",
                run_length.warmup, run_length.total
            )));
        }
        let buffer_depth = self.buffer_depth.unwrap_or(4);
        if buffer_depth == 0 {
            return Err(ScenarioError::BadParameter(
                "buffer depth must be >= 1".into(),
            ));
        }
        let packet_bytes = self
            .packet_bytes
            .unwrap_or(costmodel::normalize::PACKET_BYTES);
        if packet_bytes == 0 {
            return Err(ScenarioError::BadParameter(
                "packet size must be >= 1 byte".into(),
            ));
        }
        let shards = self.shards.unwrap_or(1);
        if shards == 0 {
            return Err(ScenarioError::BadParameter(
                "shard count must be >= 1".into(),
            ));
        }
        if let Some(plan) = &self.faults {
            // Compile once against the real wiring so an impossible
            // plan (too many routers, zero-link shape, …) is rejected
            // here, not mid-run. The run helpers recompile from the
            // same plan + wiring, so success here guarantees success
            // there.
            plan.compile(&wiring_of(topology))
                .map_err(|e| ScenarioError::BadFaults(e.to_string()))?;
        }
        let label = self.label.unwrap_or_else(|| match (topology, routing) {
            (TopologySpec::Cube { .. }, RoutingKind::Deterministic) => "cube, deterministic".into(),
            // Cube + adaptive was rejected by the combination check
            // above, so Duato is the only remaining cube arm.
            (TopologySpec::Cube { .. }, _) => "cube, Duato".into(),
            (TopologySpec::Tree { .. }, _) => format!("fat tree, {vcs} vc"),
            (TopologySpec::TaperedTree { taper, .. }, _) => {
                format!("tapered tree, {vcs} vc (taper {taper})")
            }
            (TopologySpec::Mesh { .. }, RoutingKind::Deterministic) => "mesh, deterministic".into(),
            (TopologySpec::Mesh { .. }, _) => "mesh, adaptive".into(),
            (TopologySpec::Thc { .. }, _) => "torus hypercube, deterministic".into(),
        });
        Ok(Scenario {
            label,
            topology,
            routing,
            vcs,
            pattern,
            injection: self.injection.unwrap_or(InjectionModel::Bernoulli),
            run_length,
            seed: self.seed.unwrap_or_default(),
            buffer_depth,
            packet_bytes,
            throttle: self.throttle.unwrap_or(Throttle::Auto),
            telemetry: self.telemetry,
            faults: self.faults,
            shards,
            stepper: self.stepper.unwrap_or_default(),
        })
    }
}

/// The physical wiring of a topology spec (used to validate and
/// compile fault plans).
fn wiring_of(t: TopologySpec) -> Wiring {
    // Table-driven through the family registry: one builder per family,
    // so a new family needs no arm here at all.
    Wiring::from_topology(&*t.build())
}

impl Scenario {
    /// Start building a scenario.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// Display label (figure legend entry; also feeds the derived seed).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The topology axis.
    pub fn topology(&self) -> TopologySpec {
        self.topology
    }

    /// The routing axis.
    pub fn routing(&self) -> RoutingKind {
        self.routing
    }

    /// The virtual-channel count.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// The traffic pattern.
    pub fn pattern(&self) -> Pattern {
        self.pattern
    }

    /// The run length.
    pub fn run_length(&self) -> RunLength {
        self.run_length
    }

    /// The seeding policy.
    pub fn seed_mode(&self) -> SeedMode {
        self.seed
    }

    /// The packet size in bytes.
    pub fn packet_bytes(&self) -> usize {
        self.packet_bytes
    }

    /// The lane depth in flits.
    pub fn buffer_depth(&self) -> usize {
        self.buffer_depth
    }

    /// The attached telemetry configuration, if any.
    pub fn telemetry(&self) -> Option<TelemetryConfig> {
        self.telemetry
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The shard count each run is decomposed into (1 = serial).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Same scenario stepped with a different shard count — a pure
    /// execution choice, bit-identical for every value (see
    /// [`ScenarioBuilder::shards`]).
    ///
    /// # Panics
    /// Panics on `shards == 0` (the builder rejects it too; the CLI
    /// validates before calling).
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "shard count must be >= 1");
        self.shards = shards;
        self
    }

    /// How the engine scans for work (execution detail, never part of
    /// the manifest or state ident).
    pub fn stepper(&self) -> Stepper {
        self.stepper
    }

    /// Same scenario under a different [`Stepper`] — a pure execution
    /// choice, bit-identical either way (see
    /// [`ScenarioBuilder::stepper`]).
    pub fn with_stepper(mut self, stepper: Stepper) -> Self {
        self.stepper = stepper;
        self
    }

    /// A builder pre-loaded with every axis of this scenario: the
    /// fallible way to edit one (`named(..)?.to_builder().pattern(p)
    /// .build()` re-validates instead of panicking), and a fixed point
    /// when nothing is changed.
    pub fn to_builder(&self) -> ScenarioBuilder {
        let s = self;
        ScenarioBuilder {
            label: Some(s.label.clone()),
            topology: Some(s.topology),
            routing: Some(s.routing),
            vcs: Some(s.vcs),
            pattern: Some(s.pattern),
            injection: Some(s.injection),
            run_length: Some(s.run_length),
            seed: Some(s.seed),
            buffer_depth: Some(s.buffer_depth),
            packet_bytes: Some(s.packet_bytes),
            throttle: Some(s.throttle),
            telemetry: s.telemetry,
            faults: s.faults.clone(),
            shards: Some(s.shards),
            stepper: Some(s.stepper),
        }
    }

    /// Same scenario under a different traffic pattern.
    ///
    /// # Panics
    /// Panics if the pattern is illegal for this topology (the builder
    /// would have rejected it).
    pub fn with_pattern(mut self, pattern: Pattern) -> Self {
        self.pattern = pattern;
        let rebuilt = self.to_builder().build().expect("pattern legal here");
        debug_assert_eq!(rebuilt, self);
        self
    }

    /// Same scenario with a different run length.
    pub fn with_run_length(mut self, len: RunLength) -> Self {
        assert!(len.warmup < len.total);
        self.run_length = len;
        self
    }

    /// Same scenario with a different seeding policy.
    pub fn with_seed(mut self, seed: SeedMode) -> Self {
        self.seed = seed;
        self
    }

    /// Same scenario with a telemetry configuration attached (pure
    /// observation — results are unchanged).
    pub fn with_telemetry(mut self, t: TelemetryConfig) -> Self {
        self.telemetry = Some(t);
        self
    }

    /// Same scenario with a different fault plan (or none), re-validated
    /// against the topology. Fails with [`ScenarioError::BadFaults`] if
    /// the plan does not fit.
    pub fn with_faults(self, plan: Option<FaultPlan>) -> Result<Self, ScenarioError> {
        let mut b = self.to_builder();
        b.faults = plan;
        b.build()
    }

    /// The derived Chien router class for this configuration.
    pub fn router_class(&self) -> RouterClass {
        let (k, n, vcs) = (self.topology.k(), self.topology.n(), self.vcs);
        match (self.topology, self.routing) {
            (TopologySpec::Cube { .. }, RoutingKind::Deterministic) => {
                RouterClass::CubeDeterministic { n, vcs }
            }
            (TopologySpec::Cube { .. }, _) => RouterClass::CubeDuato { n, vcs },
            (TopologySpec::Tree { .. }, _) => RouterClass::TreeAdaptive { k, vcs },
            (TopologySpec::TaperedTree { taper, .. }, _) => RouterClass::TaperedTreeAdaptive {
                k,
                up: k.div_ceil(taper),
                vcs,
            },
            (TopologySpec::Mesh { .. }, RoutingKind::Deterministic) => {
                RouterClass::MeshDeterministic { n, vcs }
            }
            (TopologySpec::Mesh { .. }, _) => RouterClass::MeshAdaptive { n, vcs },
            // The THC router is structurally a (2+d)-dimensional cube
            // router: same crossbar radix, same two-network lane split.
            (TopologySpec::Thc { d, .. }, _) => RouterClass::CubeDeterministic { n: 2 + d, vcs },
        }
    }

    /// The physical normalization (flit width, capacity, derived Chien
    /// timing).
    pub fn normalization(&self) -> NetworkNormalization {
        let timing = self.router_class().timing();
        match self.topology {
            TopologySpec::Cube { k, n } => {
                NetworkNormalization::cube(&KAryNCube::new(k, n), timing)
            }
            TopologySpec::Tree { k, n } => {
                NetworkNormalization::tree(&KAryNTree::new(k, n), timing)
            }
            TopologySpec::Mesh { k, n } => {
                NetworkNormalization::mesh(&KAryNMesh::new(k, n), timing)
            }
            TopologySpec::TaperedTree { k, n, taper } => {
                NetworkNormalization::tapered_tree(&TaperedKAryNTree::new(k, n, taper), timing)
            }
            TopologySpec::Thc { k, d } => {
                NetworkNormalization::thc(&TorusHypercube::new(k, d), timing)
            }
        }
    }

    /// Instantiate the routing algorithm (and with it the network) as a
    /// trait object.
    pub fn build_algorithm(&self) -> Box<dyn RoutingAlgorithm> {
        struct Boxed;
        impl SpecVisitor for Boxed {
            type Out = Box<dyn RoutingAlgorithm>;
            fn visit<A: RoutingAlgorithm + 'static>(self, algo: A) -> Self::Out {
                Box::new(algo)
            }
        }
        self.with_algorithm(Boxed)
    }

    /// Call `v` with this scenario's routing algorithm as a *concrete*
    /// type — the monomorphization point: everything downstream of
    /// [`SpecVisitor::visit`] (engine, routing phase, per-header route
    /// calls) is compiled per algorithm with static dispatch.
    pub fn with_algorithm<V: SpecVisitor>(&self, v: V) -> V::Out {
        let (k, n, vcs) = (self.topology.k(), self.topology.n(), self.vcs);
        match (self.topology, self.routing) {
            (TopologySpec::Cube { .. }, RoutingKind::Deterministic) => {
                v.visit(CubeDeterministic::new(KAryNCube::new(k, n)))
            }
            (TopologySpec::Cube { .. }, _) => v.visit(CubeDuato::new(KAryNCube::new(k, n))),
            (TopologySpec::Tree { .. }, _) => v.visit(TreeAdaptive::new(KAryNTree::new(k, n), vcs)),
            (TopologySpec::Mesh { .. }, RoutingKind::Deterministic) => {
                v.visit(MeshDeterministic::new(KAryNMesh::new(k, n), vcs))
            }
            (TopologySpec::Mesh { .. }, _) => v.visit(MeshAdaptive::new(KAryNMesh::new(k, n), vcs)),
            (TopologySpec::TaperedTree { taper, .. }, _) => v.visit(TaperedTreeAdaptive::new(
                TaperedKAryNTree::new(k, n, taper),
                vcs,
            )),
            (TopologySpec::Thc { k, d }, _) => {
                v.visit(ThcDeterministic::new(TorusHypercube::new(k, d)))
            }
        }
    }

    /// The seed used at one offered load under the current policy.
    pub fn seed_at(&self, fraction: f64) -> u64 {
        match self.seed {
            SeedMode::Derived { salt } => derived_seed(&self.label, self.pattern, fraction) ^ salt,
            SeedMode::Fixed(s) => s,
        }
    }

    /// Flits per packet and packets per node per cycle at an offered
    /// load (fraction of capacity).
    fn packet_rate(&self, norm: &NetworkNormalization, fraction: f64) -> (usize, f64) {
        let flits = (self.packet_bytes / norm.flit_bytes()).max(1);
        (
            flits,
            fraction * norm.capacity_flits_per_cycle() / flits as f64,
        )
    }

    /// Whether `fraction` can be offered at all: finite, non-negative,
    /// and within what the single injection channel can generate (at
    /// most one packet per node per cycle, at the on-state peak for
    /// bursty sources). The run helpers panic on a load that fails this
    /// check; callers taking loads from outside validate here first.
    pub fn check_load(&self, fraction: f64) -> Result<(), ScenarioError> {
        let (_, rate) = self.packet_rate(&self.normalization(), fraction);
        let peak = match self.injection.spec_at(rate) {
            InjectionSpec::OnOff { peak_rate, .. } => peak_rate,
            _ => rate,
        };
        if fraction.is_finite() && fraction >= 0.0 && peak <= 1.0 {
            Ok(())
        } else {
            Err(ScenarioError::BadParameter(format!(
                "offered load {fraction} is out of range (want a finite fraction of \
                 capacity >= 0 that injects at most one packet per node per cycle)"
            )))
        }
    }

    /// A simulation config for this scenario at the given offered load
    /// (fraction of capacity).
    pub fn config_at(&self, fraction: f64) -> SimConfig {
        let norm = self.normalization();
        let (flits, rate) = self.packet_rate(&norm, fraction);
        let mut cfg = SimConfig::paper_protocol(
            self.pattern,
            self.injection.spec_at(rate),
            flits as u16,
            norm.capacity_flits_per_cycle(),
        );
        cfg.warmup_cycles = self.run_length.warmup;
        cfg.total_cycles = self.run_length.total;
        cfg.buffer_depth = self.buffer_depth;
        cfg.injection_limit = match self.throttle {
            // Source throttling for the cube algorithms, after the
            // paper's reference [28]: a node holds new packets back
            // while half or more of its router's 2n·V network output
            // lanes are allocated (8 of 16 for the paper's cube). This
            // is what keeps throughput stable above saturation
            // (Section 3); the tree needs no such mechanism — its
            // saturation is intrinsically stable. See
            // `ablation_injection_limit.csv` and EXPERIMENTS.md for the
            // threshold sensitivity.
            Throttle::Auto => match self.topology {
                TopologySpec::Cube { n, .. } => Some((n * self.vcs) as u32),
                // The THC shares the cube's dateline lane design, so it
                // gets the same half-of-2·dims·V threshold.
                TopologySpec::Thc { d, .. } => Some(((2 + d) * self.vcs) as u32),
                TopologySpec::Tree { .. }
                | TopologySpec::TaperedTree { .. }
                | TopologySpec::Mesh { .. } => None,
            },
            Throttle::Off => None,
            Throttle::Limit(l) => Some(l),
        };
        cfg.seed = self.seed_at(fraction);
        cfg
    }

    /// Simulate one offered load, monomorphized per routing algorithm.
    ///
    /// # Panics
    /// Panics if the run deadlocks (the watchdog fires). A healthy
    /// scenario never deadlocks by construction; with a fault plan
    /// attached, prefer [`Scenario::try_simulate`] to get the stall as
    /// a structured error.
    pub fn simulate(&self, fraction: f64) -> SimOutcome {
        self.try_simulate(fraction)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Simulate one offered load, reporting a wedged run as a
    /// structured [`SimError`] instead of panicking. Without a fault
    /// plan (or with an empty one) the outcome is bit-identical to
    /// [`Scenario::simulate`].
    pub fn try_simulate(&self, fraction: f64) -> Result<SimOutcome, SimError> {
        self.try_simulate_sharded(fraction, self.shards, self.worker_threads())
    }

    /// [`Scenario::try_simulate`] with the shard and worker-thread
    /// counts given explicitly (overriding the scenario's own setting
    /// and `NETPERF_THREADS`). Bit-identical for every combination;
    /// `shards <= 1` is the serial run.
    pub fn try_simulate_sharded(
        &self,
        fraction: f64,
        shards: usize,
        threads: usize,
    ) -> Result<SimOutcome, SimError> {
        self.run_with(fraction, shards, threads, NullProbe, None)
            .map(|(out, _)| out)
            .map_err(sim_error)
    }

    /// The one run path under every run helper: monomorphize on the
    /// routing algorithm, attach the probe, compile the fault plan (if
    /// any), then run plain, sharded, or — with `ctl` — under
    /// checkpoint/resume control. Bit-identical every way.
    fn run_with<M: MakeProbe>(
        &self,
        fraction: f64,
        shards: usize,
        threads: usize,
        probe: M,
        ctl: Option<&mut RunControl<'_>>,
    ) -> Result<(SimOutcome, M::Probe), ResumeError> {
        struct Run<'c, 'm, 'cb, M> {
            cfg: &'c SimConfig,
            faults: Option<&'c FaultPlan>,
            shards: usize,
            threads: usize,
            stepper: Stepper,
            probe: M,
            ctl: Option<&'m mut RunControl<'cb>>,
        }
        impl<M: MakeProbe> Run<'_, '_, '_, M> {
            fn go<A: RoutingAlgorithm, F: FaultModel + Sync>(
                self,
                algo: &A,
                faults: F,
            ) -> Result<(SimOutcome, M::Probe), ResumeError> {
                let (cfg, probe) = (self.cfg, self.probe.make(algo));
                run_simulation_controlled(
                    algo,
                    cfg,
                    probe,
                    faults,
                    self.shards,
                    self.threads,
                    self.stepper,
                    self.ctl,
                )
            }
        }
        impl<M: MakeProbe> SpecVisitor for Run<'_, '_, '_, M> {
            type Out = Result<(SimOutcome, M::Probe), ResumeError>;
            fn visit<A: RoutingAlgorithm>(self, algo: A) -> Self::Out {
                match self.faults {
                    None => self.go(&algo, NoFaults),
                    Some(plan) => {
                        let w = Wiring::from_topology(algo.topology());
                        let state = plan.compile(&w).expect("fault plan validated at build");
                        self.go(&algo, state)
                    }
                }
            }
        }
        let cfg = self.config_at(fraction);
        self.with_algorithm(Run {
            cfg: &cfg,
            faults: self.faults.as_ref(),
            shards,
            threads,
            stepper: self.stepper,
            probe,
            ctl,
        })
    }

    /// A stable digest identifying everything a run snapshot of this
    /// scenario at the given load depends on: the resolved simulation
    /// config (seed included), the fault plan, and the telemetry
    /// settings. Shard and thread counts are deliberately absent —
    /// sharding is an execution detail and snapshots restore under
    /// any partition. Stamped into every checkpoint
    /// ([`RunControl::ident`]) and verified on resume, so a checkpoint
    /// can never silently continue a *different* experiment.
    pub fn state_ident(&self, fraction: f64) -> u64 {
        let cfg = self.config_at(fraction);
        let mut k = netstats::cache::KeyDigest::new("netperf-run-snapshot/1");
        k.push("label", &self.label)
            .push("topology", &self.topology.describe())
            .push("routing", self.routing.name())
            .push_u64("vcs", self.vcs as u64)
            .push("pattern", self.pattern.name())
            .push("injection", self.injection.name())
            .push_u64("packet_bytes", self.packet_bytes as u64)
            .push_u64("buffer_depth", self.buffer_depth as u64)
            .push_u64("warmup", cfg.warmup_cycles as u64)
            .push_u64("total", cfg.total_cycles as u64)
            .push_u64("seed", cfg.seed)
            .push_u64("load_bits", fraction.to_bits())
            .push_u64(
                "injection_limit",
                cfg.injection_limit.map_or(u64::MAX, u64::from),
            )
            .push_u64("request_reply", cfg.request_reply as u64)
            .push_u64("faults", self.faults.as_ref().map_or(0, |p| p.digest()));
        // Parameters the names above do not carry, pushed only for the
        // variants that have them so every other key stays the same.
        if let InjectionModel::OnOff { mean_on, mean_off } = self.injection {
            k.push_u64("mean_on_bits", mean_on.to_bits())
                .push_u64("mean_off_bits", mean_off.to_bits());
        }
        if let Pattern::HotSpot { hot, percent } = self.pattern {
            k.push_u64("hot_node", hot.into())
                .push_u64("hot_percent", percent.into());
        }
        if let Some(t) = self.telemetry {
            k.push_u64("telemetry_stride", t.stride as u64)
                .push_u64("telemetry_events", t.record_events as u64);
        }
        k.finish()
    }

    /// [`Scenario::try_simulate`] under checkpoint/resume control: the
    /// serving plane's scenario-level entry point. Set
    /// [`RunControl::ident`] to [`Scenario::state_ident`] of the same
    /// load. With `RunControl::new(..)` this is the plain run;
    /// resuming a mid-run checkpoint is bit-identical to the
    /// uninterrupted run.
    pub fn try_simulate_controlled(
        &self,
        fraction: f64,
        ctl: &mut RunControl<'_>,
    ) -> Result<SimOutcome, ResumeError> {
        let threads = self.worker_threads();
        self.run_with(fraction, self.shards, threads, NullProbe, Some(ctl))
            .map(|(out, _)| out)
    }

    /// [`Scenario::try_simulate_traced`] under checkpoint/resume
    /// control. The resumed recording's *suffix* (events from the
    /// resume cycle on) and counters are bit-identical to the
    /// uninterrupted run; per-packet refinements observed before the
    /// checkpoint (escape hops, blocked attempts) restart at zero.
    pub fn try_simulate_traced_controlled(
        &self,
        fraction: f64,
        ctl: &mut RunControl<'_>,
    ) -> Result<(SimOutcome, FlightRecorder), ResumeError> {
        let (tcfg, threads) = (self.telemetry.unwrap_or_default(), self.worker_threads());
        self.run_with(fraction, self.shards, threads, tcfg, Some(ctl))
    }

    /// Worker threads for the scenario's own sharded runs: capped by
    /// the shard count (extra threads would idle) and governed by
    /// `NETPERF_THREADS` / available parallelism like the sweep pool.
    fn worker_threads(&self) -> usize {
        if self.shards <= 1 {
            1
        } else {
            sweep_threads().min(self.shards)
        }
    }

    /// Simulate one offered load with a [`FlightRecorder`] attached,
    /// returning the outcome (bit-identical to [`Scenario::simulate`])
    /// and the recording. Uses the scenario's attached
    /// [`TelemetryConfig`], or the default when none was set.
    ///
    /// # Panics
    /// Panics if the run deadlocks; see [`Scenario::try_simulate_traced`].
    pub fn simulate_traced(&self, fraction: f64) -> (SimOutcome, FlightRecorder) {
        self.try_simulate_traced(fraction)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Scenario::simulate_traced`] with deadlocks reported as a
    /// structured [`SimError`] instead of a panic.
    pub fn try_simulate_traced(
        &self,
        fraction: f64,
    ) -> Result<(SimOutcome, FlightRecorder), SimError> {
        self.try_simulate_traced_sharded(fraction, self.shards, self.worker_threads())
    }

    /// [`Scenario::try_simulate_traced`] with explicit shard and
    /// worker-thread counts. The recording — like the outcome — is
    /// bit-identical for every combination.
    pub fn try_simulate_traced_sharded(
        &self,
        fraction: f64,
        shards: usize,
        threads: usize,
    ) -> Result<(SimOutcome, FlightRecorder), SimError> {
        let tcfg = self.telemetry.unwrap_or_default();
        self.run_with(fraction, shards, threads, tcfg, None)
            .map_err(sim_error)
    }

    /// Sweep a load grid in parallel, returning the full outcome at
    /// every point.
    ///
    /// Load points are distributed over worker threads by work stealing
    /// (each run is a pure function of the scenario, so order does not
    /// matter); finished outcomes flow back over a channel tagged with
    /// their grid index and are placed without any shared mutable
    /// state. Thread count can be pinned with `NETPERF_THREADS`.
    ///
    /// # Panics
    /// Panics if any load point deadlocks; see
    /// [`Scenario::try_sweep_outcomes`].
    pub fn sweep_outcomes(&self, fractions: &[f64]) -> Vec<SimOutcome> {
        self.try_sweep_outcomes(fractions)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Scenario::sweep_outcomes`] with deadlocks reported as a
    /// structured [`SimError`]. If several load points stall, the error
    /// of the lowest-index point is returned (deterministic regardless
    /// of thread scheduling).
    pub fn try_sweep_outcomes(&self, fractions: &[f64]) -> Result<Vec<SimOutcome>, SimError> {
        let threads = sweep_threads().min(fractions.len());
        let next = std::sync::atomic::AtomicUsize::new(0);
        type Point = (usize, Result<SimOutcome, SimError>);
        let (tx, rx) = std::sync::mpsc::channel::<Point>();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let tx = tx.clone();
                s.spawn(|| {
                    let tx = tx; // move the clone, not the original
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= fractions.len() {
                            break;
                        }
                        let out = self.try_simulate(fractions[i]);
                        if tx.send((i, out)).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        drop(tx); // all worker clones are done; close the channel
        let mut results: Vec<Option<Result<SimOutcome, SimError>>> = vec![None; fractions.len()];
        for (i, out) in rx {
            debug_assert!(results[i].is_none(), "load point {i} simulated twice");
            results[i] = Some(out);
        }
        results
            .into_iter()
            .map(|o| o.expect("all points simulated"))
            .collect()
    }

    /// The machine-readable description embedded in run manifests.
    pub fn manifest(&self) -> Manifest {
        let norm = self.normalization();
        let timing = norm.timing();
        let mut m = Manifest::new();
        m.push("label", self.label.as_str());
        m.push("topology", self.topology.describe());
        m.push("routing", self.routing.name());
        m.push("vcs", self.vcs as f64);
        m.push("nodes", self.topology.num_nodes() as f64);
        m.push("pattern", self.pattern.name());
        m.push("injection", self.injection.name());
        m.push("packet_bytes", self.packet_bytes as f64);
        m.push("flit_bytes", norm.flit_bytes() as f64);
        m.push("buffer_depth", self.buffer_depth as f64);
        m.push("capacity_flits_per_cycle", norm.capacity_flits_per_cycle());
        m.push("clock_ns", timing.clock_ns());
        m.push("clock_bottleneck", timing.bottleneck());
        let mut len = Manifest::new();
        len.push("warmup", self.run_length.warmup as f64);
        len.push("total", self.run_length.total as f64);
        m.push("run_length", ManifestValue::Object(len));
        m.push(
            "seed",
            match self.seed {
                SeedMode::Derived { salt } => format!("derived^0x{salt:016x}"),
                SeedMode::Fixed(s) => format!("fixed:0x{s:016x}"),
            },
        );
        m.push(
            "throttle",
            match self.throttle {
                Throttle::Auto => "auto".to_string(),
                Throttle::Off => "off".to_string(),
                Throttle::Limit(l) => format!("limit:{l}"),
            },
        );
        if let Some(t) = self.telemetry {
            let mut tm = Manifest::new();
            tm.push("stride", t.stride as f64);
            tm.push("record_events", t.record_events);
            m.push("telemetry", ManifestValue::Object(tm));
        }
        if let Some(plan) = &self.faults {
            let state = plan
                .compile(&wiring_of(self.topology))
                .expect("fault plan validated at build");
            let mut fm = Manifest::new();
            fm.push("spec", plan.spec_string());
            fm.push("digest", format!("0x{:016x}", plan.digest()));
            fm.push("dead_links", state.dead_links() as f64);
            fm.push("dead_routers", state.dead_routers() as f64);
            fm.push("dead_nodes", state.dead_nodes() as f64);
            fm.push("transient_links", state.transient_links() as f64);
            m.push("faults", ManifestValue::Object(fm));
        }
        m
    }
}

/// What [`Scenario::run_with`] attaches to the engine: nothing, or a
/// flight recorder sized to the network.
trait MakeProbe {
    type Probe: Probe;
    fn make(self, algo: &dyn RoutingAlgorithm) -> Self::Probe;
}

impl MakeProbe for NullProbe {
    type Probe = NullProbe;
    fn make(self, _: &dyn RoutingAlgorithm) -> NullProbe {
        NullProbe
    }
}

impl MakeProbe for TelemetryConfig {
    type Probe = FlightRecorder;
    fn make(self, algo: &dyn RoutingAlgorithm) -> FlightRecorder {
        let w = Wiring::from_topology(algo.topology());
        let geo = Geometry {
            routers: w.num_routers,
            ports: w.ports,
            vcs: algo.num_vcs(),
            nodes: w.num_nodes,
        };
        FlightRecorder::new(self, geo)
    }
}

/// A run without a checkpoint to resume can only fail in the engine.
fn sim_error(e: ResumeError) -> SimError {
    match e {
        ResumeError::Sim(e) => e,
        ResumeError::Snapshot(e) => unreachable!("nothing was resumed: {e}"),
    }
}

/// The per-run seed of [`SeedMode::Derived`]: FNV-1a over the
/// identifying data, stable across runs and platforms.
pub fn derived_seed(label: &str, pattern: Pattern, fraction: f64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    };
    label.bytes().for_each(&mut eat);
    pattern.name().bytes().for_each(&mut eat);
    fraction
        .to_bits()
        .to_le_bytes()
        .iter()
        .copied()
        .for_each(&mut eat);
    h
}

/// A generic callback for [`Scenario::with_algorithm`]: the trait
/// method is generic over the algorithm type, so implementors receive
/// the concrete `CubeDeterministic`/`CubeDuato`/`TreeAdaptive`/
/// `MeshDeterministic`/`MeshAdaptive` value rather than a trait object.
pub trait SpecVisitor {
    /// Result produced from the algorithm.
    type Out;

    /// Called exactly once with the scenario's algorithm.
    fn visit<A: RoutingAlgorithm + 'static>(self, algo: A) -> Self::Out;
}

/// Worker-thread count for [`Scenario::sweep_outcomes`] and for the
/// sharded stepper's workers: the `NETPERF_THREADS` environment
/// variable if set to a positive integer, otherwise the machine's
/// available parallelism.
///
/// Lenient by design — library callers may inherit arbitrary
/// environments, so garbage silently falls back to the default. The
/// CLI validates the variable up front with [`parse_threads`] and
/// refuses to start on a value this function would ignore.
pub fn sweep_threads() -> usize {
    std::env::var("NETPERF_THREADS")
        .ok()
        .and_then(|v| parse_threads(&v).ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
}

/// Strict parse of a `NETPERF_THREADS`-style thread count: a positive
/// decimal integer (surrounding whitespace tolerated). Returns a
/// one-line description of the problem otherwise — the CLI surfaces it
/// as `error: ...` and exits 2.
pub fn parse_threads(value: &str) -> Result<usize, String> {
    let trimmed = value.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err(format!(
            "thread count must be >= 1, got {trimmed:?} (unset NETPERF_THREADS for the default)"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "thread count must be a positive integer, got {value:?}"
        )),
    }
}

/// The default load grid used for the figures: 5% to 100% of capacity
/// in 5% steps.
pub fn default_load_grid() -> Vec<f64> {
    (1..=20).map(|i| i as f64 * 0.05).collect()
}

/// One entry of the named-scenario registry.
#[derive(Clone, Copy)]
pub struct NamedScenario {
    /// Registry key (CLI `netperf run <name>`).
    pub name: &'static str,
    /// One-line description for `netperf list`.
    pub summary: &'static str,
    build: fn() -> Scenario,
}

impl NamedScenario {
    /// Build the scenario this entry describes.
    pub fn scenario(&self) -> Scenario {
        (self.build)()
    }
}

impl std::fmt::Debug for NamedScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamedScenario")
            .field("name", &self.name)
            .finish()
    }
}

fn must(b: ScenarioBuilder) -> Scenario {
    b.build()
        .expect("registry entries are valid by construction")
}

/// Registry keys of the paper's five configurations, in the paper's
/// presentation order.
pub const PAPER_FIVE: [&str; 5] = ["cube-det", "cube-duato", "tree-1vc", "tree-2vc", "tree-4vc"];

static REGISTRY: [NamedScenario; 16] = [
    NamedScenario {
        name: "cube-det",
        summary: "paper: 16-ary 2-cube, dimension-order deterministic, 4 VCs",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::cube(16, 2))
                    .routing(RoutingKind::Deterministic),
            )
        },
    },
    NamedScenario {
        name: "cube-duato",
        summary: "paper: 16-ary 2-cube, Duato minimal adaptive, 2+2 VCs",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::cube(16, 2))
                    .routing(RoutingKind::Duato),
            )
        },
    },
    NamedScenario {
        name: "tree-1vc",
        summary: "paper: 4-ary 4-tree, minimal adaptive, 1 VC",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::tree(4, 4))
                    .routing(RoutingKind::Adaptive)
                    .vcs(1),
            )
        },
    },
    NamedScenario {
        name: "tree-2vc",
        summary: "paper: 4-ary 4-tree, minimal adaptive, 2 VCs",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::tree(4, 4))
                    .routing(RoutingKind::Adaptive)
                    .vcs(2),
            )
        },
    },
    NamedScenario {
        name: "tree-4vc",
        summary: "paper: 4-ary 4-tree, minimal adaptive, 4 VCs",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::tree(4, 4))
                    .routing(RoutingKind::Adaptive)
                    .vcs(4),
            )
        },
    },
    NamedScenario {
        name: "mesh-det",
        summary: "extension: 16-ary 2-mesh, dimension-order, 4 VCs",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::mesh(16, 2))
                    .routing(RoutingKind::Deterministic),
            )
        },
    },
    NamedScenario {
        name: "mesh-adaptive",
        summary: "extension: 16-ary 2-mesh, minimal adaptive + escape, 4 VCs",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::mesh(16, 2))
                    .routing(RoutingKind::Adaptive),
            )
        },
    },
    NamedScenario {
        name: "cube-duato-tiny",
        summary: "smoke: 4-ary 2-cube (16 nodes), Duato, quick run",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::cube(4, 2))
                    .routing(RoutingKind::Duato)
                    .run_length(RunLength::quick()),
            )
        },
    },
    NamedScenario {
        name: "tree-2vc-tiny",
        summary: "smoke: 4-ary 2-tree (16 nodes), adaptive, 2 VCs, quick run",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::tree(4, 2))
                    .routing(RoutingKind::Adaptive)
                    .vcs(2)
                    .run_length(RunLength::quick()),
            )
        },
    },
    // The fault entries keep the default labels so they share traffic
    // seeds with their healthy counterparts: the degradation shown is
    // pure fault effect, not a different noise realization.
    NamedScenario {
        name: "cube-duato-5pct",
        summary: "fault: cube-duato with 5% of links dead (seed-derived)",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::cube(16, 2))
                    .routing(RoutingKind::Duato)
                    .faults(FaultPlan::dead_links(0.05)),
            )
        },
    },
    NamedScenario {
        name: "tree-4vc-5pct",
        summary: "fault: tree-4vc with 5% of links dead (seed-derived)",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::tree(4, 4))
                    .routing(RoutingKind::Adaptive)
                    .vcs(4)
                    .faults(FaultPlan::dead_links(0.05)),
            )
        },
    },
    // Beyond-paper scale axis: the regimes the related work targets
    // (thousands of end nodes) that the sharded stepper exists to
    // serve. Same paper protocol, bigger shapes — pair with
    // `--shards`/`NETPERF_THREADS` on multicore hosts.
    NamedScenario {
        name: "tree-4ary-6",
        summary: "scale: 4-ary 6-tree (4096 nodes), minimal adaptive, 4 VCs",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::tree(4, 6))
                    .routing(RoutingKind::Adaptive)
                    .vcs(4),
            )
        },
    },
    NamedScenario {
        name: "cube-32ary-2",
        summary: "scale: 32-ary 2-cube (1024 nodes), Duato, 2+2 VCs",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::cube(32, 2))
                    .routing(RoutingKind::Duato),
            )
        },
    },
    NamedScenario {
        name: "tree-16k",
        summary: "scale: 4-ary 7-tree (16384 nodes), minimal adaptive, 4 VCs",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::tree(4, 7))
                    .routing(RoutingKind::Adaptive)
                    .vcs(4),
            )
        },
    },
    // Design-plane families: the oversubscribed tree and the
    // torus-embedded hypercube, at the paper's 256-node scale.
    NamedScenario {
        name: "tapered-tree-4vc",
        summary: "design: 4-ary 4-tree tapered 2:1, minimal adaptive, 4 VCs",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::tapered_tree(4, 4, 2))
                    .routing(RoutingKind::Adaptive)
                    .vcs(4),
            )
        },
    },
    NamedScenario {
        name: "thc-det",
        summary: "design: 4x4 torus x 4-cube (256 nodes), dimension-order, 4 VCs",
        build: || {
            must(
                Scenario::builder()
                    .topology(TopologySpec::thc(4, 4))
                    .routing(RoutingKind::Deterministic),
            )
        },
    },
];

/// All registry entries, paper configurations first.
pub fn registry() -> &'static [NamedScenario] {
    &REGISTRY
}

/// Look up a registry entry by name.
pub fn named(name: &str) -> Option<Scenario> {
    REGISTRY
        .iter()
        .find(|e| e.name == name)
        .map(|e| e.scenario())
}

/// The five configurations of the paper's evaluation as registry
/// scenarios, in the paper's presentation order.
pub fn paper_scenarios() -> Vec<Scenario> {
    PAPER_FIVE
        .iter()
        .map(|n| named(n).expect("paper entry present"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_five_paper_entries_first() {
        let labels: Vec<String> = paper_scenarios()
            .iter()
            .map(|s| s.label().to_string())
            .collect();
        assert_eq!(
            labels,
            vec![
                "cube, deterministic",
                "cube, Duato",
                "fat tree, 1 vc",
                "fat tree, 2 vc",
                "fat tree, 4 vc"
            ]
        );
        for (entry, key) in registry().iter().zip(PAPER_FIVE) {
            assert_eq!(entry.name, key);
        }
    }

    #[test]
    fn registry_names_are_unique_and_buildable() {
        let mut seen = std::collections::HashSet::new();
        for e in registry() {
            assert!(seen.insert(e.name), "duplicate registry name {}", e.name);
            let s = e.scenario();
            assert!(s.topology().num_nodes() >= 16);
            let _ = s.config_at(0.5); // must not panic
        }
        assert!(named("no-such-scenario").is_none());
    }

    #[test]
    fn builder_rejects_illegal_combinations() {
        let err = |b: ScenarioBuilder| b.build().unwrap_err();
        assert_eq!(err(Scenario::builder()), ScenarioError::MissingTopology);
        assert!(matches!(
            err(Scenario::builder()
                .topology(TopologySpec::tree(4, 2))
                .routing(RoutingKind::Duato)),
            ScenarioError::UnsupportedCombination(_)
        ));
        assert!(matches!(
            err(Scenario::builder()
                .topology(TopologySpec::cube(16, 2))
                .vcs(2)),
            ScenarioError::BadVcs(_)
        ));
        assert!(matches!(
            err(Scenario::builder()
                .topology(TopologySpec::mesh(8, 2))
                .routing(RoutingKind::Adaptive)
                .vcs(1)),
            ScenarioError::BadVcs(_)
        ));
        assert!(matches!(
            err(Scenario::builder().topology(TopologySpec::cube(1, 2))),
            ScenarioError::BadShape(_)
        ));
        assert!(matches!(
            err(Scenario::builder()
                .topology(TopologySpec::mesh(10, 2))
                .pattern(Pattern::Transpose)),
            ScenarioError::BadPattern(_)
        ));
        assert!(matches!(
            err(Scenario::builder()
                .topology(TopologySpec::cube(4, 2))
                .run_length(RunLength {
                    warmup: 100,
                    total: 100
                })),
            ScenarioError::BadParameter(_)
        ));
        assert!(matches!(
            err(Scenario::builder()
                .topology(TopologySpec::cube(4, 2))
                .shards(0)),
            ScenarioError::BadParameter(_)
        ));
    }

    #[test]
    fn shards_are_an_execution_detail() {
        // Default 1, carried by the builder and with_shards, and
        // deliberately absent from the manifest (bit-identical runs
        // must produce byte-identical manifests).
        let base = named("cube-duato-tiny").unwrap();
        assert_eq!(base.shards(), 1);
        let sharded = base.clone().with_shards(4);
        assert_eq!(sharded.shards(), 4);
        assert_eq!(
            format!("{:?}", base.manifest()),
            format!("{:?}", sharded.manifest())
        );
        let built = must(
            Scenario::builder()
                .topology(TopologySpec::cube(4, 2))
                .shards(2),
        );
        assert_eq!(built.shards(), 2);
        // Sharded and serial execution agree on the outcome.
        let serial = base.simulate(0.3);
        let split = sharded.try_simulate_sharded(0.3, 2, 1).unwrap();
        assert_eq!(serial.delivered_packets, split.delivered_packets);
        assert_eq!(serial.created_packets, split.created_packets);
        assert_eq!(
            serial.accepted_fraction.to_bits(),
            split.accepted_fraction.to_bits()
        );
    }

    #[test]
    fn stepper_is_an_execution_detail() {
        // Default kernel, carried by the builder and with_stepper,
        // deliberately absent from the manifest and the state ident
        // (bit-identical runs must share checkpoints and manifests),
        // and composing with any shard count.
        let base = named("cube-duato-tiny").unwrap();
        assert_eq!(base.stepper(), Stepper::Default);
        let audited = base.clone().with_stepper(Stepper::Reference);
        assert_eq!(audited.stepper(), Stepper::Reference);
        assert_eq!(
            format!("{:?}", base.manifest()),
            format!("{:?}", audited.manifest())
        );
        assert_eq!(base.state_ident(0.3), audited.state_ident(0.3));
        let built = must(
            Scenario::builder()
                .topology(TopologySpec::cube(4, 2))
                .shards(2)
                .stepper(Stepper::Reference),
        );
        assert_eq!((built.stepper(), built.shards()), (Stepper::Reference, 2));
        // Every combination agrees on the outcome, bit for bit.
        let default = format!("{:?}", base.simulate(0.3));
        for (stepper, shards) in [
            (Stepper::Reference, 1),
            (Stepper::Reference, 2),
            (Stepper::Default, 2),
        ] {
            let alt = base.clone().with_stepper(stepper);
            let alt = alt.try_simulate_sharded(0.3, shards, 1).unwrap();
            assert_eq!(default, format!("{alt:?}"), "{stepper} x {shards}");
        }
    }

    #[test]
    fn state_ident_moves_with_every_axis_and_every_parameter() {
        // Each case: a base builder and the same builder with one axis,
        // or one parameter inside an axis, changed.
        let cube = || {
            Scenario::builder()
                .topology(TopologySpec::cube(4, 2))
                .run_length(RunLength::quick())
        };
        let tree = || cube().topology(TopologySpec::tree(4, 2)).vcs(2);
        let onoff = |mean_on, mean_off| InjectionModel::OnOff { mean_on, mean_off };
        let hot = |hot, percent| Pattern::HotSpot { hot, percent };
        let trace = |stride, record_events| TelemetryConfig {
            stride,
            record_events,
        };
        let plan = |s: &str| FaultPlan::parse(s).unwrap();
        let cases: Vec<(&str, ScenarioBuilder, ScenarioBuilder)> = vec![
            ("label", cube(), cube().label("another")),
            ("family", cube(), cube().topology(TopologySpec::mesh(4, 2))),
            ("k", cube(), cube().topology(TopologySpec::cube(8, 2))),
            ("n", cube(), cube().topology(TopologySpec::cube(4, 3))),
            (
                "taper",
                tree().topology(TopologySpec::tapered_tree(4, 3, 2)),
                tree().topology(TopologySpec::tapered_tree(4, 3, 4)),
            ),
            (
                "thc d",
                cube().topology(TopologySpec::thc(4, 1)),
                cube().topology(TopologySpec::thc(4, 2)),
            ),
            (
                "routing",
                cube(),
                cube().routing(RoutingKind::Deterministic),
            ),
            ("vcs", tree(), tree().vcs(4)),
            ("pattern", cube(), cube().pattern(Pattern::Transpose)),
            (
                "hot node",
                cube().pattern(hot(0, 20)),
                cube().pattern(hot(3, 20)),
            ),
            (
                "hot percent",
                cube().pattern(hot(0, 20)),
                cube().pattern(hot(0, 40)),
            ),
            (
                "injection",
                cube(),
                cube().injection(InjectionModel::Periodic),
            ),
            ("on/off", cube(), cube().injection(onoff(4.0, 4.0))),
            (
                "mean_on",
                cube().injection(onoff(4.0, 4.0)),
                cube().injection(onoff(200.0, 4.0)),
            ),
            (
                "mean_off",
                cube().injection(onoff(4.0, 4.0)),
                cube().injection(onoff(4.0, 200.0)),
            ),
            (
                "warmup",
                cube(),
                cube().run_length(RunLength {
                    warmup: 900,
                    total: 6_000,
                }),
            ),
            (
                "total",
                cube(),
                cube().run_length(RunLength {
                    warmup: 1_000,
                    total: 7_000,
                }),
            ),
            ("salt", cube(), cube().seed(SeedMode::Derived { salt: 1 })),
            ("fixed seed", cube(), cube().seed(SeedMode::Fixed(7))),
            (
                "fixed seed value",
                cube().seed(SeedMode::Fixed(7)),
                cube().seed(SeedMode::Fixed(8)),
            ),
            ("buffer depth", cube(), cube().buffer_depth(8)),
            ("packet bytes", cube(), cube().packet_bytes(128)),
            ("throttle", cube(), cube().throttle(Throttle::Off)),
            (
                "throttle limit",
                cube().throttle(Throttle::Limit(3)),
                cube().throttle(Throttle::Limit(4)),
            ),
            ("telemetry", cube(), cube().telemetry(trace(64, false))),
            (
                "telemetry stride",
                cube().telemetry(trace(64, false)),
                cube().telemetry(trace(32, false)),
            ),
            (
                "telemetry events",
                cube().telemetry(trace(64, false)),
                cube().telemetry(trace(64, true)),
            ),
            ("faults", cube(), cube().faults(plan("links=0.1"))),
            (
                "fault links",
                cube().faults(plan("links=0.1")),
                cube().faults(plan("links=0.2")),
            ),
            (
                "fault seed",
                cube().faults(plan("links=0.1")),
                cube().faults(plan("links=0.1,seed=9")),
            ),
            (
                "fault routers",
                cube().faults(plan("routers=1")),
                cube().faults(plan("routers=2")),
            ),
            (
                "fault transients",
                cube().faults(plan("transient=2:200:60")),
                cube().faults(plan("transient=2:200:30")),
            ),
        ];
        for (what, base, flipped) in cases {
            let (base, flipped) = (must(base), must(flipped));
            assert_ne!(
                base.state_ident(0.3),
                flipped.state_ident(0.3),
                "changing the {what} kept the identity"
            );
        }
        let s = must(cube().injection(onoff(4.0, 4.0)));
        assert_ne!(s.state_ident(0.3), s.state_ident(0.35), "load");
        // Execution details are not part of the identity.
        for detail in [
            s.clone().with_shards(3),
            s.clone().with_stepper(Stepper::Reference),
        ] {
            assert_eq!(detail.state_ident(0.3), s.state_ident(0.3));
        }
    }

    #[test]
    fn hostile_axes_are_errors_before_anything_is_sized() {
        // `to_builder` is a fixed point, so editing through it changes
        // only what was edited.
        for e in registry() {
            let s = e.scenario();
            assert_eq!(s.to_builder().build().unwrap(), s, "{}", e.name);
        }
        let s = named("cube-duato-tiny").unwrap();
        for load in [0.0, 0.5, 1.0] {
            assert!(s.check_load(load).is_ok(), "{load}");
        }
        for load in [f64::NAN, -0.1, f64::INFINITY, 1e9] {
            let e = s.check_load(load).unwrap_err();
            assert!(matches!(e, ScenarioError::BadParameter(_)), "{load}: {e}");
        }
        // Bursty sources are bounded at their on-state peak.
        let bursty = s.to_builder().injection(InjectionModel::OnOff {
            mean_on: 10.0,
            mean_off: 30.0,
        });
        let bursty = bursty.build().unwrap();
        let limit = (1..).map(|i| i as f64).find(|&l| s.check_load(l).is_err());
        assert!(bursty.check_load(limit.unwrap() / 3.0).is_err());
        // Shapes that would overflow the node count, or merely ask for
        // terabytes, are refused by the builder.
        for t in [
            TopologySpec::cube(100_000, 3),
            TopologySpec::tree(4, 40),
            TopologySpec::thc(4, 70),
        ] {
            let e = Scenario::builder().topology(t).build().unwrap_err();
            assert!(matches!(e, ScenarioError::BadShape(_)), "{e}");
        }
    }

    #[test]
    fn thread_parse_is_strict() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 8 "), Ok(8));
        assert!(parse_threads("0").is_err());
        assert!(parse_threads("").is_err());
        assert!(parse_threads("four").is_err());
        assert!(parse_threads("-2").is_err());
        assert!(parse_threads("1.5").is_err());
    }

    #[test]
    fn scale_registry_entries_build() {
        for (name, nodes) in [
            ("tree-4ary-6", 4096),
            ("cube-32ary-2", 1024),
            ("tree-16k", 16384),
        ] {
            let s = named(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(s.topology().num_nodes(), nodes, "{name}");
        }
    }

    #[test]
    fn axis_names_round_trip() {
        for t in [
            TopologySpec::cube(16, 2),
            TopologySpec::tree(4, 4),
            TopologySpec::mesh(8, 3),
            TopologySpec::tapered_tree(4, 4, 2),
            TopologySpec::thc(4, 2),
        ] {
            assert_eq!(TopologySpec::parse(t.family(), t.k(), t.n()), Some(t));
        }
        assert_eq!(TopologySpec::parse("ring", 4, 1), None);
        for r in [
            RoutingKind::Deterministic,
            RoutingKind::Duato,
            RoutingKind::Adaptive,
        ] {
            assert_eq!(RoutingKind::parse(r.name()), Some(r));
        }
        assert_eq!(RoutingKind::parse("chaos"), None);
    }

    #[test]
    fn every_registered_alias_parses_to_the_slugs_spec() {
        // parse → family() → parse is a fixed point, through every alias
        // of every registered family (the aliases come from the same
        // table parse consults, so this catches a family added to the
        // registry but not mapped to a spec).
        for f in topology::families() {
            let canonical =
                TopologySpec::parse(f.slug, 4, 2).expect("every registered slug must parse");
            assert_eq!(canonical.family(), f.slug, "slug must round-trip");
            assert_eq!(
                TopologySpec::parse(canonical.family(), canonical.k(), canonical.n()),
                Some(canonical),
                "{} is not a parse fixed point",
                f.slug
            );
            for alias in f.aliases {
                assert_eq!(
                    TopologySpec::parse(alias, 4, 2),
                    Some(canonical),
                    "alias {alias} diverges from slug {}",
                    f.slug
                );
            }
        }
    }

    #[test]
    fn taper_rides_along_the_spec() {
        let t = TopologySpec::tapered_tree(4, 4, 2);
        assert_eq!(t.taper(), 2);
        assert_eq!(t.with_taper(4), Some(TopologySpec::tapered_tree(4, 4, 4)));
        // Only the tapered family carries a taper axis.
        assert_eq!(TopologySpec::cube(16, 2).taper(), 1);
        assert_eq!(TopologySpec::cube(16, 2).with_taper(2), None);
        // Parsing defaults the taper to the 2:1 oversubscription.
        assert_eq!(
            TopologySpec::parse("tapered-tree", 4, 4),
            Some(TopologySpec::tapered_tree(4, 4, 2))
        );
        // Structural accessors flow through the family table. The
        // taper shrinks the upper levels, so the tapered tree has
        // fewer switches than the full tree's 256: 8+16+32+64.
        assert_eq!(t.num_nodes(), 256);
        assert_eq!(t.num_routers(), 120);
        assert!(t.num_routers() < TopologySpec::tree(4, 4).num_routers());
        assert_eq!(t.bisection_links(), Some(16)); // (k/2) · up^(n-1) = 2 · 8
        assert_eq!(TopologySpec::thc(4, 2).num_nodes(), 64);
        assert_eq!(TopologySpec::mesh(5, 2).bisection_links(), None);
    }

    #[test]
    fn new_family_combinations_are_validated() {
        let err = |b: ScenarioBuilder| b.build().unwrap_err();
        assert!(matches!(
            err(Scenario::builder()
                .topology(TopologySpec::tapered_tree(4, 2, 2))
                .routing(RoutingKind::Duato)),
            ScenarioError::UnsupportedCombination(_)
        ));
        assert!(matches!(
            err(Scenario::builder().topology(TopologySpec::thc(4, 2)).vcs(2)),
            ScenarioError::BadVcs(_)
        ));
        assert!(matches!(
            err(Scenario::builder()
                .topology(TopologySpec::thc(4, 2))
                .routing(RoutingKind::Adaptive)),
            ScenarioError::UnsupportedCombination(_)
        ));
        // Defaults: adaptive on the tapered tree, deterministic on the THC.
        let tapered = must(Scenario::builder().topology(TopologySpec::tapered_tree(4, 2, 2)));
        assert_eq!(tapered.routing(), RoutingKind::Adaptive);
        assert_eq!(tapered.label(), "tapered tree, 4 vc (taper 2)");
        let thc = must(Scenario::builder().topology(TopologySpec::thc(4, 2)));
        assert_eq!(thc.routing(), RoutingKind::Deterministic);
        assert_eq!(thc.label(), "torus hypercube, deterministic");
        assert_eq!(thc.topology().describe(), "4x4 torus x 2-cube");
    }

    #[test]
    fn new_family_scenarios_simulate() {
        let quick = RunLength {
            warmup: 200,
            total: 1500,
        };
        let tapered = must(
            Scenario::builder()
                .topology(TopologySpec::tapered_tree(4, 2, 2))
                .vcs(2)
                .run_length(quick),
        );
        let out = tapered.simulate(0.3);
        assert!(out.delivered_packets > 0);
        assert!(out.accepted_fraction > 0.0);
        let thc = must(
            Scenario::builder()
                .topology(TopologySpec::thc(4, 2))
                .run_length(quick),
        );
        let out = thc.simulate(0.3);
        assert!(out.delivered_packets > 0);
        assert!(out.accepted_fraction > 0.0);
        // The THC inherits the cube's source-throttle threshold.
        assert_eq!(thc.config_at(0.5).injection_limit, Some(16));
        assert_eq!(tapered.config_at(0.5).injection_limit, None);
    }

    #[test]
    fn derived_timing_matches_the_papers_tables() {
        let det = named("cube-det").unwrap();
        assert!((det.normalization().timing().clock_ns() - 6.34).abs() < 0.01);
        let duato = named("cube-duato").unwrap();
        assert!((duato.normalization().timing().clock_ns() - 7.8).abs() < 0.01);
        let t2 = named("tree-2vc").unwrap();
        assert!((t2.normalization().timing().clock_ns() - 10.24).abs() < 0.01);
    }

    #[test]
    fn fixed_and_salted_seeds_behave() {
        let base = named("cube-duato").unwrap();
        let a = base.clone().config_at(0.5).seed;
        let salted = base
            .clone()
            .with_seed(SeedMode::Derived { salt: 0xDEAD })
            .config_at(0.5);
        assert_eq!(salted.seed, a ^ 0xDEAD);
        let fixed = base.with_seed(SeedMode::Fixed(42));
        assert_eq!(fixed.config_at(0.1).seed, 42);
        assert_eq!(fixed.config_at(0.9).seed, 42);
    }

    #[test]
    fn mesh_scenarios_simulate() {
        let s = must(
            Scenario::builder()
                .topology(TopologySpec::mesh(4, 2))
                .routing(RoutingKind::Adaptive)
                .vcs(2)
                .run_length(RunLength {
                    warmup: 200,
                    total: 1500,
                }),
        );
        let out = s.simulate(0.3);
        assert!(out.delivered_packets > 0);
        assert!(out.accepted_fraction > 0.0);
    }

    #[test]
    fn injection_models_hit_the_offered_rate() {
        let base = Scenario::builder().topology(TopologySpec::cube(16, 2));
        for inj in [
            InjectionModel::Bernoulli,
            InjectionModel::Periodic,
            InjectionModel::OnOff {
                mean_on: 64.0,
                mean_off: 64.0,
            },
        ] {
            let s = must(base.clone().injection(inj));
            let cfg = s.config_at(0.5);
            let rate = cfg.injection.mean_rate();
            // Periodic rounds to whole cycles; the others are exact.
            assert!(
                (rate - 0.5 * 0.5 / 16.0).abs() < 2e-4,
                "{inj:?} long-run rate {rate}"
            );
        }
    }

    #[test]
    fn faulted_scenarios_build_run_and_manifest() {
        // A plan that cannot fit the topology is rejected at build time.
        assert!(matches!(
            Scenario::builder()
                .topology(TopologySpec::cube(4, 2))
                .routing(RoutingKind::Duato)
                .faults(FaultPlan {
                    routers: 1000,
                    ..FaultPlan::default()
                })
                .build(),
            Err(ScenarioError::BadFaults(_))
        ));
        // A registry fault entry runs and accounts for every packet.
        let s = named("cube-duato-5pct")
            .unwrap()
            .with_run_length(RunLength::quick());
        let out = s.try_simulate(0.3).unwrap();
        assert!(out.delivered_packets > 0);
        assert!(out.dropped_packets + out.unroutable_packets > 0);
        // Its manifest names the plan.
        let m = s.manifest().to_json();
        for needle in ["\"faults\"", "\"spec\": \"links=0.05\"", "\"dead_links\":"] {
            assert!(m.contains(needle), "manifest missing {needle}:\n{m}");
        }
        // Stripping the plan restores the healthy scenario.
        let healthy = s.with_faults(None).unwrap();
        assert!(healthy.faults().is_none());
        assert!(!healthy.manifest().to_json().contains("\"faults\""));
    }

    #[test]
    fn manifest_names_the_load_bearing_fields() {
        let m = named("tree-4vc").unwrap().manifest().to_json();
        for needle in [
            "\"label\": \"fat tree, 4 vc\"",
            "\"topology\": \"4-ary 4-tree\"",
            "\"routing\": \"adaptive\"",
            "\"vcs\": 4",
            "\"clock_ns\":",
            "\"seed\": \"derived^0x0000000000000000\"",
            "\"throttle\": \"auto\"",
        ] {
            assert!(m.contains(needle), "manifest missing {needle}:\n{m}");
        }
    }
}
