//! # netperf — "Network Performance under Physical Constraints", reproduced
//!
//! A production-quality Rust reproduction of Petrini & Vanneschi's ICPP'97
//! study comparing a quaternary fat-tree (4-ary 4-tree) against a
//! bi-dimensional cube (16-ary 2-cube) with a flit-level wormhole
//! simulation normalized for physical constraints (pin count, wire delay,
//! router complexity).
//!
//! This facade crate re-exports the public API of the workspace crates so
//! downstream users can depend on a single crate:
//!
//! * [`topology`] — k-ary n-cubes and k-ary n-trees.
//! * [`traffic`] — synthetic benchmark patterns and injection processes.
//! * [`routing`] — deterministic, Duato-adaptive and fat-tree-adaptive
//!   routing functions plus channel-dependency-graph deadlock analysis.
//! * [`costmodel`] — Chien's router cost model and the paper's
//!   performance normalization.
//! * [`netstats`] — statistics collection and CSV/JSON export.
//! * [`netsim`] — the flit-level wormhole simulator, the scenario
//!   plane (`netsim::scenario`), the fault plane (`netsim::fault`,
//!   deterministic link/router fault injection with degraded-mode
//!   routing) and the request path (`netsim::request`) behind the
//!   `netperf` subcommands.
//! * [`telemetry`] — the observability plane: zero-cost-when-off
//!   engine probes, per-packet latency decomposition,
//!   channel-utilization time series, JSONL/Chrome event traces.
//! * [`analytic`] — closed-form latency/throughput baselines
//!   (Agarwal-style M/D/1 contention models).
//!
//! ## Quickstart
//!
//! ```
//! use netperf::prelude::*;
//!
//! // Simulate the paper's 16-ary 2-cube with Duato's adaptive routing
//! // under uniform traffic at 40% of capacity: look the configuration
//! // up in the scenario registry and run one load point.
//! let scenario = named("cube-duato").unwrap().with_run_length(RunLength::quick());
//! let outcome = scenario.try_simulate(0.4).unwrap();
//! assert!(outcome.accepted_fraction > 0.35); // below saturation: accepted ~ offered
//!
//! // Or compose a custom design point from the CLI's flags.
//! let custom = Scenario::from_pairs(&[
//!     ("topology", "mesh"),
//!     ("k", "4"),
//!     ("algo", "adaptive"),
//!     ("vcs", "2"),
//!     ("pattern", "transpose"),
//! ])
//! .unwrap();
//! assert_eq!(custom.label(), "mesh, adaptive");
//! assert_eq!(custom.pattern(), Pattern::Transpose);
//! ```

#![warn(missing_docs)]

pub use analytic;
pub use costmodel;
pub use netsim;
pub use netstats;
pub use routing;
pub use telemetry;
pub use topology;
pub use traffic;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use costmodel::chien::{ChienModel, RouterTiming};
    pub use costmodel::normalize::NetworkNormalization;
    pub use netsim::fault::{
        FaultError, FaultModel, FaultPlan, FaultState, NoFaults, TransientSpec,
    };
    pub use netsim::request::{execute, RequestError, RunReport, RunRequest};
    pub use netsim::scenario::{
        default_load_grid, derived_seed, named, paper_scenarios, registry, InjectionModel,
        NamedScenario, RoutingKind, RunLength, Scenario, ScenarioError, SeedMode, Throttle,
        TopologySpec,
    };
    pub use netsim::sim::{
        run_simulation_controlled, run_simulation_faulted, run_simulation_probed, ResumeError,
        RunControl, RunSnapshot, SimConfig, SimError, SimOutcome,
    };
    pub use netsim::{EngineSnapshot, SnapshotError};
    pub use netstats::export::{write_csv, write_manifest, Manifest, ManifestValue, Table};
    pub use routing::{CubeDeterministic, CubeDuato, TreeAdaptive};
    pub use telemetry::{
        Event, FlightRecorder, Geometry, LatencyBreakdown, NullProbe, Probe, TelemetryConfig,
    };
    pub use topology::{KAryNCube, KAryNTree, NodeId, RouterId, Topology};
    pub use traffic::pattern::Pattern;
}
