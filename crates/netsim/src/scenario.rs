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
//! A scenario *is* its flag list. [`Scenario::from_pairs`] is the one
//! scenario grammar: it reads the CLI's [`SCENARIO_FLAGS`] as `(flag,
//! value)` pairs and validates — only meaningful (topology, routing, VC)
//! combinations are accepted, Chien timings are *derived* from the shape
//! via [`costmodel::chien::RouterClass`], and bit-pattern traffic is
//! rejected on non-power-of-two node counts before the simulator can
//! panic. [`Scenario::to_pairs`] is its inverse, and
//! [`Scenario::state_ident`] (the key of every checkpoint and cached
//! row) is a digest of it. The **registry** ([`registry`], [`named`])
//! holds the paper's five configurations and a few extensions as plain
//! pair lists. The run helpers ([`Scenario::try_simulate`],
//! [`Scenario::try_sweep_outcomes`], and
//! [`Scenario::try_simulate_controlled`] for the execution details in a
//! [`RunControl`]) monomorphize the engine per routing algorithm, and
//! [`Scenario::manifest`] describes the scenario in run manifests.
//!
//! Reproducibility contract: with [`SeedMode::Derived`] and salt 0 a
//! scenario labelled like one of the paper's configurations produces
//! **bit-identical** counters to the pre-scenario experiment harness
//! (the seed is an FNV-1a hash of label, pattern and load, the timing
//! derivations reproduce Tables 1 and 2 exactly, and the injection
//! throttle follows the same rule). `tests/scenario_equivalence.rs`
//! pins this against goldens captured before the refactor.
//!
//! Degradation: the `faults` flag attaches a [`FaultPlan`] (validated
//! against the topology by [`Scenario::from_pairs`]); the run helpers
//! then compile it per run and use the faulted engine path, and report
//! a wedged run as a structured [`SimError`].
//!
//! ```
//! use netsim::scenario::Scenario;
//!
//! let pairs = [("topology", "mesh"), ("k", "4"), ("algo", "adaptive"), ("vcs", "2")];
//! let mesh = Scenario::from_pairs(&pairs).unwrap();
//! assert_eq!(mesh.label(), "mesh, adaptive");
//! assert_eq!(Scenario::from_pairs(&mesh.to_pairs()).unwrap(), mesh);
//! ```

#![deny(missing_docs)]

use crate::fault::{FaultModel, FaultPlan, NoFaults};
use crate::sim::{
    run_simulation_controlled, InjectionSpec, ResumeError, RunControl, SimConfig, SimError,
    SimOutcome,
};
use crate::wiring::Wiring;
use costmodel::chien::RouterClass;
use costmodel::normalize::NetworkNormalization;
use netstats::cache::KeyDigest;
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
    ///
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

    /// The topology's share of [`Scenario::to_pairs`]: `topology` (the
    /// family slug), `k`, `n`, and `taper` for the tapered tree.
    pub(crate) fn to_pairs(self) -> Vec<(&'static str, String)> {
        let mut pairs = vec![
            ("topology", self.family().to_string()),
            ("k", self.k().to_string()),
            ("n", self.n().to_string()),
        ];
        if let TopologySpec::TaperedTree { taper, .. } = self {
            pairs.push(("taper", taper.to_string()));
        }
        pairs
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

    /// The canonical `injection` flag value: the name, plus
    /// `:<mean_on>:<mean_off>` for the on/off source.
    fn spec(&self) -> String {
        match *self {
            InjectionModel::OnOff { mean_on, mean_off } => format!("onoff:{mean_on}:{mean_off}"),
            m => m.name().to_string(),
        }
    }
}

/// Largest network a scenario may describe, as log2 of the node count:
/// the scale registry entries top out at 2^14, and engine state runs to
/// ~15 KiB per node, so 2^18 nodes is already a 4 GiB simulation.
const MAX_LOG2_NODES: f64 = 18.0;

/// Why [`Scenario::from_pairs`] refused a pair list.
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
    /// A flag is unknown or malformed, or a packet size, buffer depth,
    /// run length or load is out of range.
    BadParameter(String),
    /// The attached fault plan does not fit this topology.
    BadFaults(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::MissingTopology => write!(f, "need a registry name or --topology"),
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

fn bad(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::BadParameter(msg.into())
}

/// The flags [`Scenario::from_pairs`] reads, spelled without the `--`.
/// Every other request flag (loads, sinks, cache, shards, stepper) is
/// [`crate::request`]'s.
#[rustfmt::skip]
pub const SCENARIO_FLAGS: [&str; 18] = [
    "topology", "k", "n", "taper", "algo", "vcs", "pattern", "injection", "throttle", "buffer",
    "packet-bytes", "label", "seed", "fixed-seed", "warmup", "cycles", "quick", "faults",
];

/// The flags a registry entry fixes outright: its shape...
const SHAPE_FLAGS: [&str; 6] = ["topology", "k", "n", "taper", "algo", "vcs"];
/// ...and by policy: its traffic model, router sizing and label.
const FIXED_FLAGS: [&str; 5] = ["injection", "throttle", "buffer", "packet-bytes", "label"];

/// The `netperf --help` text of the [`SCENARIO_FLAGS`].
pub const USAGE: &str = "\
scenario selection (instead of a registry name):
--topology <family>         cube|tree|tapered-tree|mesh|thc (or an alias)
--k <int>                   radix / arity (default 16)
--n <int>                   dimension / levels (default 2)
--taper <int>               up-link oversubscription ratio
                            (tapered-tree only; default 2)
--algo det|duato|adaptive   routing (default: the family's paper choice)
--vcs <int>                 virtual channels (default 4)
--injection <model>         bernoulli|periodic|onoff:<on>:<off> (default bernoulli)
--throttle auto|off|<int>   source throttling (default auto: the paper's rule)
--buffer <int>              lane depth in flits (default 4)
--packet-bytes <int>        packet size (default 64)
--label <text>              override the display label (feeds the seed)

scenario overrides (work with a name too):
--pattern <name>            uniform|complement|bitrev|transpose|shuffle|
                            butterfly|tornado|neighbor|hotspot[:<node>:<percent>]
                            (default uniform; plain hotspot is node 0 at 20%)
--cycles <int>              total cycles (default 20000)
--warmup <int>              warm-up cycles (default 2000)
--quick                     short run (1000/6000 cycles; explicit --warmup
                            and --cycles win)
--seed <salt>               salt the derived per-run seeds (default 0)
--fixed-seed <int>          one fixed seed for every load point
--faults <spec>             deterministic fault plan: comma-separated
                            links=<frac>, routers=<count>,
                            transient=<links>:<period>:<down>, seed=<int>,
                            or the literal none (default: healthy network)";

/// `(flag, value)` pairs looked up by flag. A flag given twice — or
/// under two spellings — means its last value.
pub(crate) struct Flags<'a, K, V>(pub(crate) &'a [(K, V)]);

impl<'a, K: AsRef<str>, V: AsRef<str>> Flags<'a, K, V> {
    /// The last pair spelled with any of `names`.
    pub(crate) fn last_of(&self, names: &[&str]) -> Option<(&'a str, &'a str)> {
        let (f, v) = self
            .0
            .iter()
            .rev()
            .find(|(f, _)| names.contains(&f.as_ref()))?;
        Some((f.as_ref(), v.as_ref()))
    }

    pub(crate) fn get(&self, flag: &str) -> Option<&'a str> {
        self.last_of(&[flag]).map(|(_, v)| v)
    }

    pub(crate) fn any_of(&self, names: &[&str]) -> bool {
        self.last_of(names).is_some()
    }

    /// A bare flag: absent, or spelled `"true"`.
    pub(crate) fn switch(&self, flag: &str) -> Result<bool, ScenarioError> {
        match self.get(flag) {
            None => Ok(false),
            Some("true") => Ok(true),
            Some(v) => Err(bad(format!("unexpected argument {v}"))),
        }
    }

    /// `--flag <T>`, or `bad --flag`.
    pub(crate) fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, ScenarioError> {
        let parse = |v: &str| v.parse().map_err(|_| bad(format!("bad --{flag}")));
        self.get(flag).map(parse).transpose()
    }

    /// `--flag <integer >= min>`.
    pub(crate) fn at_least<T>(&self, flag: &str, min: T) -> Result<Option<T>, ScenarioError>
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
    {
        let parse = |v: &str| {
            let ok = v.parse().ok().filter(|x: &T| *x >= min);
            ok.ok_or_else(|| bad(format!("bad --{flag} (want an integer >= {min})")))
        };
        self.get(flag).map(parse).transpose()
    }
}

/// `base` followed by `overrides`, as one borrowed pair list.
fn chain<'a, K: AsRef<str>, V: AsRef<str>>(
    base: impl Iterator<Item = (&'a str, &'a str)>,
    overrides: &'a [(K, V)],
) -> Vec<(&'a str, &'a str)> {
    let overrides = overrides.iter().map(|(f, v)| (f.as_ref(), v.as_ref()));
    base.chain(overrides).collect()
}

fn parse_u64(flag: &str, s: &str) -> Result<u64, ScenarioError> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
    .ok_or_else(|| bad(format!("bad --{flag}")))
}

fn parse_injection(spec: &str) -> Result<InjectionModel, ScenarioError> {
    // Mean sojourns below one cycle have no discrete-time meaning.
    let mean = |v: &str| v.parse().ok().filter(|m: &f64| *m >= 1.0 && m.is_finite());
    let onoff = || {
        let (on, off) = spec.strip_prefix("onoff:")?.split_once(':')?;
        Some(InjectionModel::OnOff {
            mean_on: mean(on)?,
            mean_off: mean(off)?,
        })
    };
    match spec {
        "bernoulli" => Some(InjectionModel::Bernoulli),
        "periodic" => Some(InjectionModel::Periodic),
        _ => onoff(),
    }
    .ok_or_else(|| {
        bad(format!(
            "bad injection model {spec} (bernoulli|periodic|onoff:<on>:<off>)"
        ))
    })
}

fn parse_throttle(v: &str) -> Result<Throttle, ScenarioError> {
    Ok(match v {
        "auto" => Throttle::Auto,
        "off" => Throttle::Off,
        limit => Throttle::Limit(
            limit
                .parse()
                .map_err(|_| bad("bad --throttle (auto|off|<int>)"))?,
        ),
    })
}

/// Refuse a degenerate shape, or one too big to size: a shape whose
/// node count overflows panics in the topology crate, and one that
/// merely fits asks for an allocation that aborts.
fn check_shape(topology: TopologySpec) -> Result<(), ScenarioError> {
    let (k, n) = (topology.k(), topology.n());
    if k < 2 || n < 1 {
        return Err(ScenarioError::BadShape(format!(
            "degenerate {} shape: k = {k}, n = {n} (need k >= 2, n >= 1)",
            topology.family()
        )));
    }
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
    Ok(())
}

/// Refuse a (topology, routing) pair without an implementation, or a VC
/// count its routers do not support.
fn check_routing(
    topology: TopologySpec,
    routing: RoutingKind,
    vcs: usize,
) -> Result<(), ScenarioError> {
    let family = topology.family();
    let min_vcs = match (topology, routing) {
        // The cube routers implement the paper's fixed 4-lane design
        // (two virtual networks / 2+2 adaptive-escape); the THC shares
        // the same two-virtual-network dateline design.
        (TopologySpec::Cube { .. }, RoutingKind::Deterministic | RoutingKind::Duato)
        | (TopologySpec::Thc { .. }, RoutingKind::Deterministic) => {
            return match vcs {
                4 => Ok(()),
                _ => Err(ScenarioError::BadVcs(format!(
                    "{family} routing is defined for exactly 4 virtual channels, got {vcs}"
                ))),
            };
        }
        (TopologySpec::Tree { .. } | TopologySpec::TaperedTree { .. }, RoutingKind::Adaptive)
        | (TopologySpec::Mesh { .. }, RoutingKind::Deterministic) => 1,
        // The adaptive mesh needs an escape lane.
        (TopologySpec::Mesh { .. }, RoutingKind::Adaptive) => 2,
        (t, r) => {
            return Err(ScenarioError::UnsupportedCombination(format!(
                "no {} routing on the {}; supported: cube+det, cube+duato, \
                 tree+adaptive, tapered-tree+adaptive, mesh+det, mesh+adaptive, thc+det",
                r.name(),
                t.family()
            )));
        }
    };
    if vcs < min_vcs {
        return Err(ScenarioError::BadVcs(format!(
            "{family}-{} needs at least {min_vcs} virtual channel(s), got {vcs}",
            routing.name()
        )));
    }
    Ok(())
}

/// The paper's legend text for a configuration (the label when none is
/// given).
fn default_label(topology: TopologySpec, routing: RoutingKind, vcs: usize) -> String {
    match (topology, routing) {
        (TopologySpec::Cube { .. }, RoutingKind::Deterministic) => "cube, deterministic".into(),
        // Cube + adaptive is refused by `check_routing`, so Duato is
        // the only remaining cube arm.
        (TopologySpec::Cube { .. }, _) => "cube, Duato".into(),
        (TopologySpec::Tree { .. }, _) => format!("fat tree, {vcs} vc"),
        (TopologySpec::TaperedTree { taper, .. }, _) => {
            format!("tapered tree, {vcs} vc (taper {taper})")
        }
        (TopologySpec::Mesh { .. }, RoutingKind::Deterministic) => "mesh, deterministic".into(),
        (TopologySpec::Mesh { .. }, _) => "mesh, adaptive".into(),
        (TopologySpec::Thc { .. }, _) => "torus hypercube, deterministic".into(),
    }
}

/// One point of the design space, minus the offered load (which stays a
/// sweep variable). Build with [`Scenario::from_pairs`] or look one up
/// in the [`registry`].
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
}

/// The physical wiring of a topology spec (used to validate and
/// compile fault plans).
fn wiring_of(t: TopologySpec) -> Wiring {
    // Table-driven through the family registry: one builder per family,
    // so a new family needs no arm here at all.
    Wiring::from_topology(&*t.build())
}

impl Scenario {
    /// Validate a scenario from its [`SCENARIO_FLAGS`] pairs (no `--`;
    /// the last value of a flag wins; bare `quick` is `"true"`). All but
    /// `topology` default to the paper's choices; an explicit `warmup`
    /// or `cycles` beats `quick`, and `faults none` is the healthy
    /// network.
    pub fn from_pairs<K: AsRef<str>, V: AsRef<str>>(
        pairs: &[(K, V)],
    ) -> Result<Scenario, ScenarioError> {
        let unknown = pairs
            .iter()
            .find(|(f, _)| !SCENARIO_FLAGS.contains(&f.as_ref()));
        if let Some((flag, _)) = unknown {
            return Err(bad(format!("unknown flag --{}", flag.as_ref())));
        }
        let f = Flags(pairs);
        let family = f.get("topology").ok_or(ScenarioError::MissingTopology)?;
        let (k, n) = (f.num("k")?.unwrap_or(16), f.num("n")?.unwrap_or(2));
        let mut topology = TopologySpec::parse(family, k, n).ok_or_else(|| {
            let slugs: Vec<_> = topology::families().iter().map(|f| f.slug).collect();
            bad(format!("unknown topology {family} ({})", slugs.join("|")))
        })?;
        if let Some(t) = f.at_least("taper", 1)? {
            topology = topology.with_taper(t).ok_or_else(|| {
                bad(format!(
                    "--taper applies to tapered trees, not the {family}"
                ))
            })?;
        }
        check_shape(topology)?;
        let routing = match f.get("algo") {
            Some(a) => RoutingKind::parse(a)
                .ok_or_else(|| bad(format!("unknown algorithm {a} (det|duato|adaptive)")))?,
            None => match topology {
                TopologySpec::Cube { .. } => RoutingKind::Duato,
                TopologySpec::Tree { .. } | TopologySpec::TaperedTree { .. } => {
                    RoutingKind::Adaptive
                }
                TopologySpec::Mesh { .. } | TopologySpec::Thc { .. } => RoutingKind::Deterministic,
            },
        };
        let vcs = f.num("vcs")?.unwrap_or(4);
        check_routing(topology, routing, vcs)?;

        let pattern = match f.get("pattern") {
            Some(p) => Pattern::parse(p).ok_or_else(|| bad(format!("unknown pattern {p}")))?,
            None => Pattern::Uniform,
        };
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
        let injection = f.get("injection").map(parse_injection).transpose()?;
        let throttle = f.get("throttle").map(parse_throttle).transpose()?;

        let base = if f.switch("quick")? {
            RunLength::quick()
        } else {
            RunLength::paper()
        };
        let run_length = RunLength {
            warmup: f.num("warmup")?.unwrap_or(base.warmup),
            total: f.num("cycles")?.unwrap_or(base.total),
        };
        if run_length.warmup >= run_length.total {
            return Err(bad(format!(
                "warm-up ({}) must be shorter than the run ({})",
                run_length.warmup, run_length.total
            )));
        }
        let seed = match f.last_of(&["seed", "fixed-seed"]) {
            Some(("seed", v)) => SeedMode::Derived {
                salt: parse_u64("seed", v)?,
            },
            Some((flag, v)) => SeedMode::Fixed(parse_u64(flag, v)?),
            None => SeedMode::default(),
        };
        let buffer_depth = f.at_least("buffer", 1)?.unwrap_or(4);
        let packet_bytes = f.at_least("packet-bytes", 1)?;
        let packet_bytes = packet_bytes.unwrap_or(costmodel::normalize::PACKET_BYTES);
        let faults = match f.get("faults") {
            None => None,
            Some(spec) => {
                let plan =
                    FaultPlan::parse(spec).map_err(|e| bad(format!("bad --faults spec: {e}")))?;
                // Compile once against the real wiring so an impossible
                // plan (too many routers, zero-link shape, …) is refused
                // here, not mid-run; the run helpers recompile from the
                // same plan + wiring. An empty plan is the healthy
                // network.
                plan.compile(&wiring_of(topology))
                    .map_err(|e| ScenarioError::BadFaults(e.to_string()))?;
                (!plan.is_empty()).then_some(plan)
            }
        };
        let label = f
            .get("label")
            .map_or_else(|| default_label(topology, routing, vcs), str::to_string);
        Ok(Scenario {
            label,
            topology,
            routing,
            vcs,
            pattern,
            injection: injection.unwrap_or(InjectionModel::Bernoulli),
            run_length,
            seed,
            buffer_depth,
            packet_bytes,
            throttle: throttle.unwrap_or(Throttle::Auto),
            telemetry: None,
            faults,
        })
    }

    /// The inverse of [`Scenario::from_pairs`]: every axis as a pair in
    /// canonical spelling (`det`, `hotspot:3:40`, `onoff:4:4`, the fault
    /// spec), so `from_pairs(&s.to_pairs()) == s` (telemetry aside).
    pub fn to_pairs(&self) -> Vec<(&'static str, String)> {
        let mut pairs = self.topology.to_pairs();
        pairs.extend([
            ("algo", self.routing.name().to_string()),
            ("vcs", self.vcs.to_string()),
            ("pattern", self.pattern.spec()),
            ("injection", self.injection.spec()),
            (
                "throttle",
                match self.throttle {
                    Throttle::Auto => "auto".to_string(),
                    Throttle::Off => "off".to_string(),
                    Throttle::Limit(l) => l.to_string(),
                },
            ),
            ("buffer", self.buffer_depth.to_string()),
            ("packet-bytes", self.packet_bytes.to_string()),
            ("label", self.label.clone()),
            match self.seed {
                SeedMode::Derived { salt } => ("seed", salt.to_string()),
                SeedMode::Fixed(s) => ("fixed-seed", s.to_string()),
            },
            ("warmup", self.run_length.warmup.to_string()),
            ("cycles", self.run_length.total.to_string()),
        ]);
        if let Some(plan) = &self.faults {
            pairs.push(("faults", plan.spec_string()));
        }
        pairs
    }

    /// This scenario's [`to_pairs`](Scenario::to_pairs) followed by
    /// `overrides`, re-validated: the way to edit any axis
    /// (`s.with_pairs(&[("pattern", "transpose")])?`). Telemetry is kept.
    pub fn with_pairs<K: AsRef<str>, V: AsRef<str>>(
        &self,
        overrides: &[(K, V)],
    ) -> Result<Scenario, ScenarioError> {
        let base = self.to_pairs();
        let base = base.iter().map(|(f, v)| (*f, v.as_str()));
        let mut s = Scenario::from_pairs(&chain(base, overrides))?;
        s.telemetry = self.telemetry;
        Ok(s)
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

    /// The packet size in bytes.
    pub fn packet_bytes(&self) -> usize {
        self.packet_bytes
    }

    /// The attached telemetry configuration, if any.
    pub fn telemetry(&self) -> Option<TelemetryConfig> {
        self.telemetry
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
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

    /// Same scenario with a telemetry configuration attached: the
    /// traced run helpers record with these settings, and the config is
    /// embedded in run manifests and the state ident. Telemetry is a
    /// pure observation overlay — it never changes simulation results.
    pub fn with_telemetry(mut self, t: TelemetryConfig) -> Self {
        self.telemetry = Some(t);
        self
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

    /// Simulate one offered load, serial on the default stepper,
    /// monomorphized per routing algorithm. A wedged run (possible
    /// under a fault plan) is a structured [`SimError`].
    pub fn try_simulate(&self, fraction: f64) -> Result<SimOutcome, SimError> {
        self.try_simulate_sharded(fraction, 1, 1)
    }

    /// [`Scenario::try_simulate`] decomposed into `shards` shards
    /// stepped by `threads` worker threads. Bit-identical for every
    /// combination; `shards <= 1` is the serial run.
    pub fn try_simulate_sharded(
        &self,
        fraction: f64,
        shards: usize,
        threads: usize,
    ) -> Result<SimOutcome, SimError> {
        let mut ctl = RunControl {
            shards,
            ..RunControl::new(0)
        };
        self.run_with(fraction, threads, NullProbe, &mut ctl)
            .map(|(out, _)| out)
            .map_err(sim_error)
    }

    /// The one run path under every run helper: monomorphize on the
    /// routing algorithm, attach the probe, compile the fault plan (if
    /// any), then run as `ctl` says — serial or sharded, on either
    /// stepper, checkpointed or resumed. Bit-identical every way.
    fn run_with<M: MakeProbe>(
        &self,
        fraction: f64,
        threads: usize,
        probe: M,
        ctl: &mut RunControl<'_>,
    ) -> Result<(SimOutcome, M::Probe), ResumeError> {
        struct Run<'c, 'm, 'cb, M> {
            cfg: &'c SimConfig,
            faults: Option<&'c FaultPlan>,
            threads: usize,
            probe: M,
            ctl: &'m mut RunControl<'cb>,
        }
        impl<M: MakeProbe> Run<'_, '_, '_, M> {
            fn go<A: RoutingAlgorithm, F: FaultModel + Sync>(
                self,
                algo: &A,
                faults: F,
            ) -> Result<(SimOutcome, M::Probe), ResumeError> {
                let (cfg, probe) = (self.cfg, self.probe.make(algo));
                run_simulation_controlled(algo, cfg, probe, faults, self.threads, self.ctl)
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
            threads,
            probe,
            ctl,
        })
    }

    /// The identity of a run at this load: a [`KeyDigest`] over
    /// [`to_pairs`](Scenario::to_pairs), the load's bits and the
    /// telemetry overlay — so it misses an axis only if the round trip
    /// does. Execution details live in [`RunControl`], not here.
    /// Stamped into every checkpoint ([`RunControl::ident`]) and checked
    /// on resume; every result-cache key folds it in.
    pub fn state_ident(&self, fraction: f64) -> u64 {
        let mut k = KeyDigest::new("netperf-run-snapshot/2");
        for (flag, value) in self.to_pairs() {
            k.push(flag, &value);
        }
        k.push_u64("load_bits", fraction.to_bits());
        if let Some(t) = self.telemetry {
            k.push_u64("telemetry_stride", t.stride as u64)
                .push_u64("telemetry_events", t.record_events as u64);
        }
        k.finish()
    }

    /// [`Scenario::try_simulate`] under a [`RunControl`]: its shards
    /// (worker threads from `NETPERF_THREADS`) and stepper, and — with
    /// [`RunControl::ident`] set to [`Scenario::state_ident`] of this
    /// load — checkpoints and resume, all bit-identical to the plain run.
    pub fn try_simulate_controlled(
        &self,
        fraction: f64,
        ctl: &mut RunControl<'_>,
    ) -> Result<SimOutcome, ResumeError> {
        self.run_with(fraction, worker_threads(ctl.shards), NullProbe, ctl)
            .map(|(out, _)| out)
    }

    /// [`Scenario::try_simulate_traced`] under a [`RunControl`]. The
    /// resumed recording's *suffix* (events from the resume cycle on)
    /// and counters are bit-identical to the uninterrupted run;
    /// per-packet refinements observed before the checkpoint (escape
    /// hops, blocked attempts) restart at zero.
    pub fn try_simulate_traced_controlled(
        &self,
        fraction: f64,
        ctl: &mut RunControl<'_>,
    ) -> Result<(SimOutcome, FlightRecorder), ResumeError> {
        let tcfg = self.telemetry.unwrap_or_default();
        self.run_with(fraction, worker_threads(ctl.shards), tcfg, ctl)
    }

    /// Simulate one offered load with a [`FlightRecorder`] attached,
    /// returning the outcome (bit-identical to
    /// [`Scenario::try_simulate`]) and the recording. Uses the
    /// scenario's attached [`TelemetryConfig`], or the default when none
    /// was set.
    pub fn try_simulate_traced(
        &self,
        fraction: f64,
    ) -> Result<(SimOutcome, FlightRecorder), SimError> {
        self.try_simulate_traced_sharded(fraction, 1, 1)
    }

    /// [`Scenario::try_simulate_traced`] decomposed into `shards` shards
    /// stepped by `threads` worker threads: the same outcome and the
    /// same event stream for every combination.
    pub fn try_simulate_traced_sharded(
        &self,
        fraction: f64,
        shards: usize,
        threads: usize,
    ) -> Result<(SimOutcome, FlightRecorder), SimError> {
        let tcfg = self.telemetry.unwrap_or_default();
        let mut ctl = RunControl {
            shards,
            ..RunControl::new(0)
        };
        self.run_with(fraction, threads, tcfg, &mut ctl)
            .map_err(sim_error)
    }

    /// Sweep a load grid in parallel on the sweep pool (see
    /// [`sweep_threads`]), returning the full outcome at every point.
    /// If several load points stall, the error of the lowest-index
    /// point is returned.
    pub fn try_sweep_outcomes(&self, fractions: &[f64]) -> Result<Vec<SimOutcome>, SimError> {
        sweep_pool(fractions, |f| self.try_simulate(f))
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

/// Worker-thread count for [`Scenario::try_sweep_outcomes`] and for the
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

/// Run `point` at every load: points are distributed over
/// [`sweep_threads`] workers by work stealing (each run is a pure
/// function of its load, so order does not matter), and finished
/// outcomes flow back over a channel tagged with their grid index,
/// placed without any shared mutable state. If several points fail, the
/// error of the lowest-index point is returned (deterministic
/// regardless of thread scheduling).
pub(crate) fn sweep_pool<E: Send>(
    fractions: &[f64],
    point: impl Fn(f64) -> Result<SimOutcome, E> + Sync,
) -> Result<Vec<SimOutcome>, E> {
    let threads = sweep_threads().min(fractions.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<SimOutcome, E>)>();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            s.spawn(|| {
                let tx = tx; // move the clone, not the original
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= fractions.len() || tx.send((i, point(fractions[i]))).is_err() {
                        break;
                    }
                }
            });
        }
    });
    drop(tx); // all worker clones are done; close the channel
    let mut results: Vec<Option<Result<SimOutcome, E>>> = fractions.iter().map(|_| None).collect();
    for (i, out) in rx {
        debug_assert!(results[i].is_none(), "load point {i} simulated twice");
        results[i] = Some(out);
    }
    results
        .into_iter()
        .map(|o| o.expect("all points simulated"))
        .collect()
}

/// Worker threads for one sharded run: capped by the shard count (extra
/// threads would idle) and governed by `NETPERF_THREADS` / available
/// parallelism like the sweep pool.
fn worker_threads(shards: usize) -> usize {
    if shards <= 1 {
        1
    } else {
        sweep_threads().min(shards)
    }
}

/// One entry of the named-scenario registry: a name, a summary and the
/// `(flag, value)` pairs that define the scenario.
#[derive(Clone, Copy, Debug)]
pub struct NamedScenario {
    /// Registry key (CLI `netperf run <name>`).
    pub name: &'static str,
    /// One-line description for `netperf list`.
    pub summary: &'static str,
    /// The scenario's flags for [`Scenario::from_pairs`]; every flag
    /// not given takes its default.
    pub pairs: &'static [(&'static str, &'static str)],
}

impl NamedScenario {
    /// Build the scenario this entry describes.
    pub fn scenario(&self) -> Scenario {
        Scenario::from_pairs(self.pairs).expect("registry entries are valid by construction")
    }

    /// This entry's pairs followed by `overrides` (the last value of a
    /// flag wins). Overriding the entry's shape or traffic model is an
    /// error: that would be another scenario under this one's name.
    pub(crate) fn with_overrides<K: AsRef<str>, V: AsRef<str>>(
        &self,
        overrides: &[(K, V)],
    ) -> Result<Scenario, ScenarioError> {
        let f = Flags(overrides);
        if f.any_of(&SHAPE_FLAGS) {
            return Err(bad(
                "give either a registry name or --topology/--k/--n/--taper/--algo/--vcs flags, \
                 not both",
            ));
        }
        if f.any_of(&FIXED_FLAGS) {
            return Err(bad(
                "registry scenarios fix injection/throttle/buffer/packet size/label; \
                 use explicit --topology flags to change them",
            ));
        }
        Scenario::from_pairs(&chain(self.pairs.iter().copied(), overrides))
    }
}

/// Registry keys of the paper's five configurations, in the paper's
/// presentation order.
pub const PAPER_FIVE: [&str; 5] = ["cube-det", "cube-duato", "tree-1vc", "tree-2vc", "tree-4vc"];

const fn row(
    name: &'static str,
    summary: &'static str,
    pairs: &'static [(&'static str, &'static str)],
) -> NamedScenario {
    NamedScenario {
        name,
        summary,
        pairs,
    }
}

#[rustfmt::skip]
static REGISTRY: [NamedScenario; 16] = [
    row("cube-det", "paper: 16-ary 2-cube, dimension-order deterministic, 4 VCs",
        &[("topology", "cube"), ("k", "16"), ("n", "2"), ("algo", "det")]),
    row("cube-duato", "paper: 16-ary 2-cube, Duato minimal adaptive, 2+2 VCs",
        &[("topology", "cube"), ("k", "16"), ("n", "2"), ("algo", "duato")]),
    row("tree-1vc", "paper: 4-ary 4-tree, minimal adaptive, 1 VC",
        &[("topology", "tree"), ("k", "4"), ("n", "4"), ("algo", "adaptive"), ("vcs", "1")]),
    row("tree-2vc", "paper: 4-ary 4-tree, minimal adaptive, 2 VCs",
        &[("topology", "tree"), ("k", "4"), ("n", "4"), ("algo", "adaptive"), ("vcs", "2")]),
    row("tree-4vc", "paper: 4-ary 4-tree, minimal adaptive, 4 VCs",
        &[("topology", "tree"), ("k", "4"), ("n", "4"), ("algo", "adaptive"), ("vcs", "4")]),
    row("mesh-det", "extension: 16-ary 2-mesh, dimension-order, 4 VCs",
        &[("topology", "mesh"), ("k", "16"), ("n", "2"), ("algo", "det")]),
    row("mesh-adaptive", "extension: 16-ary 2-mesh, minimal adaptive + escape, 4 VCs",
        &[("topology", "mesh"), ("k", "16"), ("n", "2"), ("algo", "adaptive")]),
    row("cube-duato-tiny", "smoke: 4-ary 2-cube (16 nodes), Duato, quick run",
        &[("topology", "cube"), ("k", "4"), ("n", "2"), ("algo", "duato"),
          ("warmup", "1000"), ("cycles", "6000")]),
    row("tree-2vc-tiny", "smoke: 4-ary 2-tree (16 nodes), adaptive, 2 VCs, quick run",
        &[("topology", "tree"), ("k", "4"), ("n", "2"), ("algo", "adaptive"), ("vcs", "2"),
          ("warmup", "1000"), ("cycles", "6000")]),
    // The fault entries keep the default labels so they share traffic
    // seeds with their healthy counterparts: the degradation shown is
    // pure fault effect, not a different noise realization.
    row("cube-duato-5pct", "fault: cube-duato with 5% of links dead (seed-derived)",
        &[("topology", "cube"), ("k", "16"), ("n", "2"), ("algo", "duato"),
          ("faults", "links=0.05")]),
    row("tree-4vc-5pct", "fault: tree-4vc with 5% of links dead (seed-derived)",
        &[("topology", "tree"), ("k", "4"), ("n", "4"), ("algo", "adaptive"), ("vcs", "4"),
          ("faults", "links=0.05")]),
    // Beyond-paper scale axis: the regimes the related work targets
    // (thousands of end nodes) that the sharded stepper exists to
    // serve. Same paper protocol, bigger shapes — pair with
    // `--shards`/`NETPERF_THREADS` on multicore hosts.
    row("tree-4ary-6", "scale: 4-ary 6-tree (4096 nodes), minimal adaptive, 4 VCs",
        &[("topology", "tree"), ("k", "4"), ("n", "6"), ("algo", "adaptive"), ("vcs", "4")]),
    row("cube-32ary-2", "scale: 32-ary 2-cube (1024 nodes), Duato, 2+2 VCs",
        &[("topology", "cube"), ("k", "32"), ("n", "2"), ("algo", "duato")]),
    row("tree-16k", "scale: 4-ary 7-tree (16384 nodes), minimal adaptive, 4 VCs",
        &[("topology", "tree"), ("k", "4"), ("n", "7"), ("algo", "adaptive"), ("vcs", "4")]),
    // Design-plane families: the oversubscribed tree and the
    // torus-embedded hypercube, at the paper's 256-node scale.
    row("tapered-tree-4vc", "design: 4-ary 4-tree tapered 2:1, minimal adaptive, 4 VCs",
        &[("topology", "tapered-tree"), ("k", "4"), ("n", "4"), ("taper", "2"),
          ("algo", "adaptive"), ("vcs", "4")]),
    row("thc-det", "design: 4x4 torus x 4-cube (256 nodes), dimension-order, 4 VCs",
        &[("topology", "thc"), ("k", "4"), ("n", "4"), ("algo", "det")]),
];

/// All registry entries, paper configurations first.
pub fn registry() -> &'static [NamedScenario] {
    &REGISTRY
}

/// Look up a registry entry by name.
pub(crate) fn entry(name: &str) -> Option<&'static NamedScenario> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Look up a registry entry by name and build its scenario.
pub fn named(name: &str) -> Option<Scenario> {
    entry(name).map(NamedScenario::scenario)
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
    use crate::sim::Stepper;

    /// A scenario from pairs that must validate.
    fn sc(pairs: &[(&str, &str)]) -> Scenario {
        Scenario::from_pairs(pairs).unwrap_or_else(|e| panic!("{pairs:?}: {e}"))
    }

    /// The error a pair list is refused with.
    fn err(pairs: &[(&str, &str)]) -> ScenarioError {
        Scenario::from_pairs(pairs).expect_err("must be refused")
    }

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
    fn every_registry_entry_round_trips_through_its_pairs() {
        for e in registry() {
            let s = e.scenario();
            assert_eq!(
                Scenario::from_pairs(&s.to_pairs()).unwrap(),
                s,
                "{}",
                e.name
            );
            assert_eq!(
                e.with_overrides::<&str, &str>(&[]).unwrap(),
                s,
                "{}",
                e.name
            );
        }
        // Every non-default value survives too, in canonical spelling.
        let s = sc(&[
            ("topology", "fat-tree"),
            ("k", "4"),
            ("n", "3"),
            ("algo", "adaptive"),
            ("vcs", "3"),
            ("pattern", "hotspot:5:35"),
            ("injection", "onoff:4.5:200"),
            ("throttle", "7"),
            ("buffer", "6"),
            ("packet-bytes", "128"),
            ("label", "mine"),
            ("fixed-seed", "0x2a"),
            ("quick", "true"),
            ("cycles", "4000"),
            ("faults", "transient=2:200:60,routers=1,seed=9"),
        ]);
        let pairs = s.to_pairs();
        assert_eq!(Scenario::from_pairs(&pairs).unwrap(), s);
        let get = |flag: &str| pairs.iter().find(|(f, _)| *f == flag).unwrap().1.as_str();
        assert_eq!(get("topology"), "tree");
        assert_eq!(get("pattern"), "hotspot:5:35");
        assert_eq!(get("injection"), "onoff:4.5:200");
        assert_eq!(get("fixed-seed"), "42");
        assert_eq!(get("faults"), "routers=1,transient=2:200:60,seed=0x9");
        assert_eq!((get("warmup"), get("cycles")), ("1000", "4000"));
    }

    #[test]
    fn from_pairs_rejects_illegal_combinations() {
        assert_eq!(err(&[("k", "4")]), ScenarioError::MissingTopology);
        let tree = [("topology", "tree"), ("k", "4")];
        assert!(matches!(
            err(&[tree[0], tree[1], ("algo", "duato")]),
            ScenarioError::UnsupportedCombination(_)
        ));
        assert!(matches!(
            err(&[("topology", "cube"), ("vcs", "2")]),
            ScenarioError::BadVcs(_)
        ));
        assert!(matches!(
            err(&[
                ("topology", "mesh"),
                ("k", "8"),
                ("algo", "adaptive"),
                ("vcs", "1")
            ]),
            ScenarioError::BadVcs(_)
        ));
        assert!(matches!(
            err(&[("topology", "cube"), ("k", "1")]),
            ScenarioError::BadShape(_)
        ));
        assert!(matches!(
            err(&[("topology", "mesh"), ("k", "10"), ("pattern", "transpose")]),
            ScenarioError::BadPattern(_)
        ));
        assert!(matches!(
            err(&[
                ("topology", "cube"),
                ("k", "4"),
                ("pattern", "hotspot:16:20")
            ]),
            ScenarioError::BadPattern(_)
        ));
        let short = [
            ("topology", "cube"),
            ("k", "4"),
            ("warmup", "100"),
            ("cycles", "100"),
        ];
        assert!(matches!(err(&short), ScenarioError::BadParameter(_)));
        for bad_flag in [
            ("shards", "2"),
            ("vcs", "four"),
            ("taper", "0"),
            ("quick", "yes"),
            ("pattern", "hotspot:3"),
            ("injection", "onoff:0.5:4"),
            ("buffer", "0"),
            ("faults", "bananas"),
        ] {
            let e = err(&[("topology", "cube"), ("k", "4"), bad_flag]);
            assert!(
                matches!(e, ScenarioError::BadParameter(_)),
                "{bad_flag:?}: {e}"
            );
        }
        assert!(matches!(
            err(&[("topology", "cube"), ("k", "4"), ("faults", "routers=1000")]),
            ScenarioError::BadFaults(_)
        ));
        // A registry name fixes its shape and its traffic model.
        let tiny = entry("cube-duato-tiny").unwrap();
        for fixed in ["k", "n", "algo", "injection", "packet-bytes", "label"] {
            let e = tiny.with_overrides(&[(fixed, "4")]).unwrap_err();
            assert!(matches!(e, ScenarioError::BadParameter(_)), "{fixed}: {e}");
        }
    }

    #[test]
    fn run_length_overrides_keep_the_other_value_and_beat_quick() {
        let tiny = entry("cube-duato-tiny").unwrap();
        let len =
            |e: &NamedScenario, kv: &[(&str, &str)]| e.with_overrides(kv).unwrap().run_length();
        let rl = |warmup, total| RunLength { warmup, total };
        assert_eq!(len(tiny, &[("warmup", "100")]), rl(100, 6_000));
        assert_eq!(len(tiny, &[("cycles", "1500")]), rl(1_000, 1_500));
        let paper = entry("cube-duato").unwrap();
        assert_eq!(len(paper, &[]), RunLength::paper());
        assert_eq!(len(paper, &[("quick", "true")]), RunLength::quick());
        for kv in [
            [("quick", "true"), ("warmup", "100")],
            [("warmup", "100"), ("quick", "true")],
        ] {
            assert_eq!(len(paper, &kv), rl(100, 6_000), "{kv:?}");
        }
        assert_eq!(
            len(paper, &[("cycles", "3000"), ("quick", "true")]),
            rl(1_000, 3_000)
        );
    }

    #[test]
    fn shards_and_stepper_are_execution_details_of_run_control() {
        // Every shards x stepper combination agrees with the default
        // serial run bit for bit, and none of them is part of the
        // scenario: a checkpoint taken serially resumes under each.
        let base = named("cube-duato-tiny").unwrap();
        let (load, ident) = (0.3, base.state_ident(0.3));
        let (manifest, pairs) = (format!("{:?}", base.manifest()), base.to_pairs());
        let default = format!("{:?}", base.try_simulate(load).unwrap());
        let mut snaps = Vec::new();
        let mut sink = |s: &crate::sim::RunSnapshot| snaps.push(s.clone());
        let mut ctl = RunControl::new(ident);
        ctl.checkpoint_every = Some(2_500);
        ctl.on_checkpoint = Some(&mut sink);
        base.try_simulate_controlled(load, &mut ctl).unwrap();
        let snap = snaps.pop().expect("a checkpoint");
        for (stepper, shards) in [
            (Stepper::Default, 1),
            (Stepper::Reference, 1),
            (Stepper::Reference, 2),
            (Stepper::Default, 2),
            (Stepper::Default, 4),
        ] {
            for resume in [None, Some(snap.clone())] {
                let mut ctl = RunControl {
                    shards,
                    stepper,
                    resume,
                    ..RunControl::new(ident)
                };
                let alt = base.try_simulate_controlled(load, &mut ctl).unwrap();
                assert_eq!(default, format!("{alt:?}"), "{stepper} x {shards}");
            }
        }
        let split = base.try_simulate_sharded(load, 2, 1).unwrap();
        assert_eq!(default, format!("{split:?}"));
        assert_eq!(format!("{:?}", base.manifest()), manifest);
        assert_eq!((base.state_ident(load), base.to_pairs()), (ident, pairs));
    }

    #[test]
    fn state_ident_moves_with_every_axis_and_every_parameter() {
        // Each case: a base scenario and the same scenario with one
        // axis, or one parameter inside an axis, changed.
        let cube = |extra: &[(&str, &str)]| {
            let mut pairs = vec![
                ("topology", "cube"),
                ("k", "4"),
                ("n", "2"),
                ("quick", "true"),
            ];
            pairs.extend_from_slice(extra);
            sc(&pairs)
        };
        let tree = |extra: &[(&str, &str)]| {
            let mut pairs = vec![("topology", "tree"), ("vcs", "2")];
            pairs.extend_from_slice(extra);
            cube(&pairs)
        };
        let trace = |stride, record_events| TelemetryConfig {
            stride,
            record_events,
        };
        let tapered = [("topology", "tapered-tree"), ("n", "3")];
        let thc = ("topology", "thc");
        let cases: Vec<(&str, Scenario, Scenario)> = vec![
            ("label", cube(&[]), cube(&[("label", "another")])),
            ("family", cube(&[]), cube(&[("topology", "mesh")])),
            ("k", cube(&[]), cube(&[("k", "8")])),
            ("n", cube(&[]), cube(&[("n", "3")])),
            (
                "taper",
                tree(&[tapered[0], tapered[1], ("taper", "2")]),
                tree(&[tapered[0], tapered[1], ("taper", "4")]),
            ),
            ("thc d", cube(&[thc, ("n", "1")]), cube(&[thc, ("n", "2")])),
            ("routing", cube(&[]), cube(&[("algo", "det")])),
            ("vcs", tree(&[]), tree(&[("vcs", "4")])),
            ("pattern", cube(&[]), cube(&[("pattern", "transpose")])),
            (
                "hot node",
                cube(&[("pattern", "hotspot:0:20")]),
                cube(&[("pattern", "hotspot:3:20")]),
            ),
            (
                "hot percent",
                cube(&[("pattern", "hotspot:0:20")]),
                cube(&[("pattern", "hotspot:0:40")]),
            ),
            ("injection", cube(&[]), cube(&[("injection", "periodic")])),
            ("on/off", cube(&[]), cube(&[("injection", "onoff:4:4")])),
            (
                "mean_on",
                cube(&[("injection", "onoff:4:4")]),
                cube(&[("injection", "onoff:200:4")]),
            ),
            (
                "mean_off",
                cube(&[("injection", "onoff:4:4")]),
                cube(&[("injection", "onoff:4:200")]),
            ),
            ("warmup", cube(&[]), cube(&[("warmup", "900")])),
            ("total", cube(&[]), cube(&[("cycles", "7000")])),
            ("salt", cube(&[]), cube(&[("seed", "1")])),
            ("fixed seed", cube(&[]), cube(&[("fixed-seed", "7")])),
            (
                "fixed seed value",
                cube(&[("fixed-seed", "7")]),
                cube(&[("fixed-seed", "8")]),
            ),
            ("buffer depth", cube(&[]), cube(&[("buffer", "8")])),
            ("packet bytes", cube(&[]), cube(&[("packet-bytes", "128")])),
            ("throttle", cube(&[]), cube(&[("throttle", "off")])),
            (
                "throttle limit",
                cube(&[("throttle", "3")]),
                cube(&[("throttle", "4")]),
            ),
            (
                "telemetry",
                cube(&[]),
                cube(&[]).with_telemetry(trace(64, false)),
            ),
            (
                "telemetry stride",
                cube(&[]).with_telemetry(trace(64, false)),
                cube(&[]).with_telemetry(trace(32, false)),
            ),
            (
                "telemetry events",
                cube(&[]).with_telemetry(trace(64, false)),
                cube(&[]).with_telemetry(trace(64, true)),
            ),
            ("faults", cube(&[]), cube(&[("faults", "links=0.1")])),
            (
                "fault links",
                cube(&[("faults", "links=0.1")]),
                cube(&[("faults", "links=0.2")]),
            ),
            (
                "fault seed",
                cube(&[("faults", "links=0.1")]),
                cube(&[("faults", "links=0.1,seed=9")]),
            ),
            (
                "fault routers",
                cube(&[("faults", "routers=1")]),
                cube(&[("faults", "routers=2")]),
            ),
            (
                "fault transients",
                cube(&[("faults", "transient=2:200:60")]),
                cube(&[("faults", "transient=2:200:30")]),
            ),
        ];
        for (what, base, flipped) in cases {
            assert_ne!(
                base.state_ident(0.3),
                flipped.state_ident(0.3),
                "changing the {what} kept the identity"
            );
        }
        let s = cube(&[("injection", "onoff:4:4")]);
        assert_ne!(s.state_ident(0.3), s.state_ident(0.35), "load");
        // The ident is a function of the canonical pairs alone: any
        // spelling of the same scenario has the same identity.
        let spelled = cube(&[
            ("topology", "torus"),
            ("injection", "onoff:4.0:4"),
            ("seed", "0"),
        ]);
        assert_eq!(spelled.state_ident(0.3), s.state_ident(0.3));
    }

    #[test]
    fn hostile_axes_are_errors_before_anything_is_sized() {
        let s = named("cube-duato-tiny").unwrap();
        for load in [0.0, 0.5, 1.0] {
            assert!(s.check_load(load).is_ok(), "{load}");
        }
        for load in [f64::NAN, -0.1, f64::INFINITY, 1e9] {
            let e = s.check_load(load).unwrap_err();
            assert!(matches!(e, ScenarioError::BadParameter(_)), "{load}: {e}");
        }
        // Bursty sources are bounded at their on-state peak.
        let bursty = s.with_pairs(&[("injection", "onoff:10:30")]).unwrap();
        let limit = (1..).map(|i| i as f64).find(|&l| s.check_load(l).is_err());
        assert!(bursty.check_load(limit.unwrap() / 3.0).is_err());
        // Shapes that would overflow the node count, or merely ask for
        // terabytes, are refused before anything is built.
        for (family, k, n) in [
            ("cube", "100000", "3"),
            ("tree", "4", "40"),
            ("thc", "4", "70"),
        ] {
            let e = err(&[("topology", family), ("k", k), ("n", n)]);
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
        let tapered = [("topology", "tapered-tree"), ("k", "4")];
        let thc = [("topology", "thc"), ("k", "4")];
        assert!(matches!(
            err(&[tapered[0], tapered[1], ("algo", "duato")]),
            ScenarioError::UnsupportedCombination(_)
        ));
        assert!(matches!(
            err(&[thc[0], thc[1], ("vcs", "2")]),
            ScenarioError::BadVcs(_)
        ));
        assert!(matches!(
            err(&[thc[0], thc[1], ("algo", "adaptive")]),
            ScenarioError::UnsupportedCombination(_)
        ));
        // --taper belongs to the tapered tree alone.
        assert!(matches!(
            err(&[thc[0], thc[1], ("taper", "2")]),
            ScenarioError::BadParameter(_)
        ));
        // Defaults: adaptive on the tapered tree, deterministic on the THC.
        let tapered = sc(&tapered);
        assert_eq!(tapered.routing(), RoutingKind::Adaptive);
        assert_eq!(tapered.label(), "tapered tree, 4 vc (taper 2)");
        let thc = sc(&thc);
        assert_eq!(thc.routing(), RoutingKind::Deterministic);
        assert_eq!(thc.label(), "torus hypercube, deterministic");
        assert_eq!(thc.topology().describe(), "4x4 torus x 2-cube");
    }

    #[test]
    fn new_family_scenarios_simulate() {
        let short = [("warmup", "200"), ("cycles", "1500")];
        let tapered = sc(&[
            ("topology", "tapered-tree"),
            ("k", "4"),
            ("vcs", "2"),
            short[0],
            short[1],
        ]);
        let out = tapered.try_simulate(0.3).unwrap();
        assert!(out.delivered_packets > 0);
        assert!(out.accepted_fraction > 0.0);
        let thc = sc(&[("topology", "thc"), ("k", "4"), short[0], short[1]]);
        let out = thc.try_simulate(0.3).unwrap();
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
        let s = sc(&[
            ("topology", "mesh"),
            ("k", "4"),
            ("algo", "adaptive"),
            ("vcs", "2"),
            ("warmup", "200"),
            ("cycles", "1500"),
        ]);
        let out = s.try_simulate(0.3).unwrap();
        assert!(out.delivered_packets > 0);
        assert!(out.accepted_fraction > 0.0);
    }

    #[test]
    fn injection_models_hit_the_offered_rate() {
        for inj in ["bernoulli", "periodic", "onoff:64:64"] {
            let s = sc(&[("topology", "cube"), ("injection", inj)]);
            let rate = s.config_at(0.5).injection.mean_rate();
            // Periodic rounds to whole cycles; the others are exact.
            assert!(
                (rate - 0.5 * 0.5 / 16.0).abs() < 2e-4,
                "{inj} long-run rate {rate}"
            );
        }
    }

    #[test]
    fn faulted_scenarios_build_run_and_manifest() {
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
        // `faults none` restores the healthy scenario.
        let healthy = s.with_pairs(&[("faults", "none")]).unwrap();
        assert!(healthy.faults().is_none());
        assert!(!healthy.manifest().to_json().contains("\"faults\""));
        assert_eq!(
            healthy,
            named("cube-duato")
                .unwrap()
                .with_run_length(RunLength::quick())
        );
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
