//! Flit-level wormhole network simulator — the SMART reproduction.
//!
//! This crate is the core of the reproduction: a cycle-driven simulation
//! of the router model of Section 4 of the paper, faithful to its
//! stated behaviour:
//!
//! * bidirectional physical channels, each direction carrying `V`
//!   virtual channels with a 4-flit **input lane** and a 4-flit
//!   **output lane** per virtual channel;
//! * **credit-based flow control**: every output lane holds a counter
//!   initialized with the buffer count of the downstream input lane,
//!   decremented when a flit crosses the link and incremented when an
//!   acknowledgment reports a freed buffer;
//! * a **crossbar** whose input→output path is established by the
//!   routing decision and held until the tail flit of the packet passes;
//! * at most **one header routed per switch per cycle** (`T_routing`),
//!   one flit per lane per cycle through the crossbar (`T_crossbar`),
//!   and one flit per physical-channel direction per cycle on the link
//!   (`T_link`), with every stage equalized to a single clock as in
//!   Section 5;
//! * a **single injection channel** per node (source throttling): one
//!   packet streams from the processor into the router at a time;
//! * an **arbiter with a fair (round-robin) policy** wherever multiple
//!   lanes compete for one resource;
//! * the adaptive selection policy of Section 2: among admissible links
//!   "pick the less loaded link, that is the link that has the maximum
//!   number of free virtual channels (a fair choice is made when more
//!   links are in a similar state)"; for Duato's algorithm the escape
//!   lane is used only when every adaptive candidate is unavailable.
//!
//! Statistics follow Section 6: a 2000-cycle warm-up, measurement until
//! cycle 20000, accepted bandwidth as delivered flits per node per cycle
//! and network latency from the insertion of the header flit in the
//! injection lane to the reception of the tail flit (source queueing
//! time excluded).
//!
//! The [`scenario`] module is the compositional experiment layer: a
//! validated [`Scenario`] per design point
//! (topology × routing × VCs × pattern × injection × seeding), a
//! named-scenario registry holding the paper's five configurations, and
//! multi-threaded load sweeps producing the CNF curves of Figures 5–7.
//! The [`request`] module is the one path from a CLI or `serve` request
//! to rows on disk: a typed [`request::RunRequest`], validated in one
//! place and run by [`request::execute`], with errors as values.
//!
//! Observability: the engine is generic over a [`telemetry::Probe`]
//! (default `NullProbe`, compiled to a no-op), so
//! [`Scenario::try_simulate_traced`](scenario::Scenario::try_simulate_traced)
//! and [`sim::run_simulation_probed`] can record per-packet latency
//! decompositions, channel-utilization time series and lifecycle event
//! traces without perturbing — or slowing — untraced runs.
//!
//! Degradation: the [`fault`] module adds deterministic link/router
//! fault injection behind the same zero-cost pattern (the engine is
//! generic over a [`fault::FaultModel`], default
//! [`fault::NoFaults`]); undeliverable packets are drained and counted
//! rather than hanging the run.
//!
//! ```
//! use netsim::scenario::named;
//!
//! // Build one of the paper's five configurations from the registry
//! // and simulate a light load.
//! let scenario = named("cube-duato-tiny").unwrap();
//! let outcome = scenario.try_simulate(0.2).unwrap();
//! assert!(outcome.delivered_packets > 0);
//! assert_eq!(outcome.dropped_packets, 0); // no faults attached
//! ```

#![warn(missing_docs)]
pub mod active;
pub mod engine;
pub mod fault;
pub mod flit;
pub mod request;
pub mod scenario;
pub mod sim;
pub mod wiring;

pub use engine::shard::ShardPlan;
pub use engine::snapshot::{EngineSnapshot, SnapshotError};
pub use fault::{FaultError, FaultModel, FaultPlan, FaultState, NoFaults};
pub use scenario::{
    derived_seed, named, paper_scenarios, parse_threads, registry, InjectionModel, NamedScenario,
    RoutingKind, RunLength, Scenario, ScenarioError, SeedMode, SpecVisitor, Throttle, TopologySpec,
};
pub use sim::{
    run_simulation_controlled, run_simulation_faulted, run_simulation_probed, ResumeError,
    RunControl, RunSnapshot, SimConfig, SimError, SimOutcome, Stepper,
};
pub use telemetry;

/// Engine build-configuration flags, for run manifests: feature name →
/// enabled. Currently the only engine-affecting feature is
/// `reference-engine` (the `reference` audit of the kernel).
pub fn engine_features() -> Vec<(&'static str, bool)> {
    vec![("reference-engine", cfg!(feature = "reference-engine"))]
}
