//! Standalone layer probes of the traced run: costs that cannot be read
//! off a replayed operation because the real path offers no seam there
//! (topology vs. routing construction), because they are per-call
//! nanoseconds (route, destination draw, injection tick, identity
//! digest), or because no workload runs them (the design-space screen).
//! Each runs under a `probe` root span, apart from the operations'.

use crate::replay::Sums;
use crate::span::Tracer;
use crate::stats::median;
use netsim::engine::Engine;
use netsim::scenario::{Scenario, SpecVisitor};
use netsim::wiring::Wiring;
use routing::{CandidateSet, RoutingAlgorithm};
use std::hint::black_box;
use std::time::Instant;
use topology::{NodeId, RouterId};
use traffic::{Bernoulli, InjectionProcess, Rng64, TrafficGen};

/// Samples of the per-call probes.
const CALLS: usize = 1_000_000;

/// Median seconds of `reps` runs of `f` under spans named `name`.
fn median_time<T>(
    tr: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, s) = tr.time(name, &mut f);
            black_box(out);
            s
        })
        .collect();
    median(&times)
}

/// A healthy, unprobed engine for `cfg`, as the measurement protocol
/// builds it, nothing stepped yet.
fn fresh_engine<'a, A: RoutingAlgorithm>(
    algo: &'a A,
    cfg: &netsim::sim::SimConfig,
) -> Engine<'a, A> {
    let rate = cfg.injection.mean_rate();
    let mut eng = Engine::new(
        algo,
        cfg.buffer_depth,
        cfg.flits_per_packet,
        TrafficGen::new(cfg.pattern, algo.topology().num_nodes()),
        &move |_| Box::new(Bernoulli::new(rate)),
        cfg.seed,
    );
    eng.set_injection_limit(cfg.injection_limit);
    eng
}

/// Resident set of this process right after the engine of `scenario`
/// exists (network, routing tables, wiring and lane storage, nothing
/// stepped yet). Meant to run first in a fresh process, so the number is
/// the simulator's footprint and not the harness's history.
pub fn rss_after_new(tr: &mut Tracer, sums: &mut Sums, scenario: &Scenario, load: f64) {
    struct Build(netsim::sim::SimConfig);
    impl SpecVisitor for Build {
        type Out = f64;
        fn visit<A: RoutingAlgorithm + 'static>(self, algo: A) -> f64 {
            black_box(fresh_engine(&algo, &self.0));
            crate::child::self_rss_mb()
        }
    }
    let root = tr.begin("probe");
    let (rss, _) = tr.time("engine.new", || {
        scenario.with_algorithm(Build(scenario.config_at(load)))
    });
    tr.end(root);
    sums.add("engine.rss_mb_after_new", rss);
}

/// Construction cost of one scenario's network, layer by layer, added
/// `sims` times (once per simulation the workload runs on it):
/// `topology.build_s` is `TopologySpec::build`; `routing.build_s` is
/// `Scenario::build_algorithm` minus that (the algorithm constructor
/// builds its own topology); `wiring.build_s` is `Wiring::from_topology`.
pub fn construction(tr: &mut Tracer, sums: &mut Sums, scenario: &Scenario, sims: usize) {
    let root = tr.begin("probe");
    let spec = scenario.topology();
    let topology_s = median_time(tr, "topology.build", 5, || spec.build());
    let both_s = median_time(tr, "routing.build", 5, || scenario.build_algorithm());
    let algo = scenario.build_algorithm();
    let wiring_s = median_time(tr, "wiring.build", 5, || {
        Wiring::from_topology(algo.topology())
    });
    tr.end(root);
    let n = sims as f64;
    sums.add("topology.build_s", topology_s * n);
    sums.add("routing.build_s", (both_s - topology_s).max(0.0) * n);
    sums.add("wiring.build_s", wiring_s * n);
}

/// Per-call nanoseconds on one scenario, each over a million seeded
/// draws: `RoutingAlgorithm::route` on the concrete algorithm type (as
/// the engine calls it) over (router, destination) pairs,
/// `TrafficGen::dest`, one boxed injection-process tick at this load's
/// rate, and `Scenario::state_ident`. Pushed as samples; the metric is
/// the mean over the workload's configurations.
pub fn per_call(tr: &mut Tracer, sums: &mut Sums, scenario: &Scenario, load: f64, seed: u64) {
    struct Route {
        seed: u64,
    }
    impl SpecVisitor for Route {
        type Out = f64;
        fn visit<A: RoutingAlgorithm + 'static>(self, algo: A) -> f64 {
            let topo = algo.topology();
            let (routers, nodes) = (topo.num_routers() as u64, topo.num_nodes() as u64);
            let mut rng = Rng64::seed_from(self.seed);
            let pairs: Vec<(u32, u32)> = (0..CALLS)
                .map(|_| (rng.below(routers) as u32, rng.below(nodes) as u32))
                .collect();
            let mut out = CandidateSet::default();
            let start = Instant::now();
            for &(r, d) in &pairs {
                out.clear();
                algo.route(RouterId(r), None, NodeId(d), &mut out);
                black_box(out.len());
            }
            start.elapsed().as_secs_f64() * 1e9 / CALLS as f64
        }
    }
    let root = tr.begin("probe");
    let (route_ns, _) = tr.time("routing.route", || scenario.with_algorithm(Route { seed }));

    let nodes = scenario.topology().num_nodes();
    let gen = TrafficGen::new(scenario.pattern(), nodes);
    let mut rng = Rng64::seed_from(seed ^ 1);
    let (dest_ns, _) = tr.time("traffic.dest", || {
        let start = Instant::now();
        for i in 0..CALLS {
            black_box(gen.dest(NodeId((i % nodes) as u32), &mut rng));
        }
        start.elapsed().as_secs_f64() * 1e9 / CALLS as f64
    });

    let cfg = scenario.config_at(load);
    let mut process: Box<dyn InjectionProcess> =
        Box::new(Bernoulli::new(cfg.injection.mean_rate()));
    let (inject_ns, _) = tr.time("traffic.inject", || {
        let start = Instant::now();
        let mut fired = 0u32;
        for _ in 0..CALLS {
            fired += u32::from(process.tick(&mut rng));
        }
        black_box(fired);
        start.elapsed().as_secs_f64() * 1e9 / CALLS as f64
    });

    const IDENTS: usize = 2_000;
    let (ident_ns, _) = tr.time("scenario.state_ident", || {
        let start = Instant::now();
        for _ in 0..IDENTS {
            black_box(scenario.state_ident(black_box(load)));
        }
        start.elapsed().as_secs_f64() * 1e9 / IDENTS as f64
    });
    tr.end(root);

    sums.add("routing.route_ns", route_ns);
    sums.add("traffic.dest_ns", dest_ns);
    sums.add("traffic.inject_ns", inject_ns);
    sums.add("scenario.state_ident_ns", ident_ns);
    sums.add("per_call.configs", 1.0);
}

/// The design-space screen no workload runs (`netperf design` is >95%
/// stepping that `paper-sat` already measures): enumerate and price the
/// default 256-node / 160-pin budget, and evaluate the closed-form
/// models of the paper's cube and tree over the default load grid.
pub fn design_space(tr: &mut Tracer, sums: &mut Sums) {
    let root = tr.begin("probe");
    let budget = costmodel::DesignBudget {
        nodes: 256,
        pin_budget: 160,
    };
    let (points, s) = tr.time("costmodel.enumerate", || {
        costmodel::enumerate_designs(&budget)
    });
    sums.add("costmodel.enumerate_s", s);
    sums.add("costmodel.candidates", points.len() as f64);
    sums.add(
        "costmodel.feasible",
        points.iter().filter(|p| p.feasible).count() as f64,
    );
    let ((), s) = tr.time("analytic.screen", || {
        let cube = analytic::CubeModel::new(16, 2, 16);
        let tree = analytic::TreeModel::new(4, 4, 32);
        black_box((cube.saturation_fraction(), tree.saturation_fraction()));
        for load in netsim::scenario::default_load_grid() {
            black_box((cube.predicted_latency(load), tree.predicted_latency(load)));
        }
    });
    sums.add("analytic.screen_s", s);
    tr.end(root);
}

/// Engine-level snapshot costs on `scenario` at `load`, with the state
/// of cycle `at`: `Engine::snapshot`, `state_hash` and `restore`, median
/// of five each. (Encode and decode of the run-level `NPCK` envelope are
/// timed where the replay performs them.)
pub fn snapshot(tr: &mut Tracer, sums: &mut Sums, scenario: &Scenario, load: f64, at: u32) {
    struct Probe<'t> {
        tr: &'t mut Tracer,
        cfg: netsim::sim::SimConfig,
        at: u32,
    }
    impl SpecVisitor for Probe<'_> {
        type Out = [f64; 3];
        fn visit<A: RoutingAlgorithm + 'static>(self, algo: A) -> [f64; 3] {
            let mut eng = fresh_engine(&algo, &self.cfg);
            eng.run(self.at);
            let take = median_time(self.tr, "snapshot.take", 5, || eng.snapshot(7));
            let hash = median_time(self.tr, "snapshot.state_hash", 5, || eng.state_hash());
            let snap = eng.snapshot(7);
            let restore = median_time(self.tr, "snapshot.restore", 5, || {
                eng.restore(&snap, 7)
                    .expect("restore the engine's own snapshot")
            });
            [take, hash, restore]
        }
    }
    let root = tr.begin("probe");
    let cfg = scenario.config_at(load);
    let [take, hash, restore] = scenario.with_algorithm(Probe { tr, cfg, at });
    tr.end(root);
    sums.add("snapshot.take_s", take);
    sums.add("snapshot.state_hash_s", hash);
    sums.add("snapshot.restore_s", restore);
}
