//! Strong/weak-scaling panel of sharded runs (wheel schedule, the default).
//!
//! Runs a ladder of network sizes — the paper's 4-ary 4-tree (256
//! nodes) plus the beyond-paper registry entries `cube-32ary-2`
//! (1024 nodes), `tree-4ary-6` (4096 nodes) and `tree-16k` (16384
//! nodes) — under uniform traffic at offered load 0.3, once serially
//! and once per shard count in {2, 4, 8}, and reports wall-clock
//! throughput (simulated cycles per second and flit-moves per second)
//! for every (size, shards) cell. Worker threads are capped at the
//! host's available parallelism, and the host CPU count is recorded in
//! the output: on a single-core host every shard runs on the caller
//! thread, so the panel measures pure sharding *overhead* (barrier +
//! handoff cost), not speedup — the honest number that machine can
//! produce.
//!
//! Every cell follows the bench discipline of `bench_engine`: one
//! untimed warm-up iteration, then the median of three timed
//! iterations. The final counters of every sharded cell are asserted
//! bit-identical to the serial cell of the same size, so the panel
//! doubles as an at-scale determinism check.
//!
//! Writes `scale_sweep.csv` and `scale_sweep.json` under `--out <dir>`
//! (default `results`). `--quick` shortens the runs and skips the
//! 16k-node rung for smoke testing.
//!
//! Usage: `scale_sweep [--quick] [--out <dir>]`

use netsim::engine::{Counters, Engine};
use netsim::scenario::{named, SpecVisitor};
use netsim::sim::SimConfig;
use netsim::wiring::Wiring;
use routing::RoutingAlgorithm;
use std::fmt::Write as _;
use std::time::Instant;
use traffic::{Bernoulli, InjectionProcess, TrafficGen};

/// Offered load for every cell: the adaptive-routing sweet spot well
/// below saturation, where all sizes run stably.
const LOAD: f64 = 0.3;

/// Shard counts per size. 1 is the serial run (the baseline the
/// speedup column divides by).
const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// The size ladder: registry name and simulated cycles per timed run
/// (budgeted so each rung costs roughly the same wall-clock time).
const SIZES: [(&str, u32); 4] = [
    ("tree-4vc", 6_000),
    ("cube-32ary-2", 3_000),
    ("tree-4ary-6", 1_500),
    ("tree-16k", 600),
];

struct Cell {
    config: String,
    nodes: usize,
    routers: usize,
    cycles: u32,
    shards: usize,
    threads: usize,
    secs: f64,
    flit_moves: u64,
}

impl Cell {
    fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.secs
    }
    fn moves_per_sec(&self) -> f64 {
        self.flit_moves as f64 / self.secs
    }
}

/// One untimed warm-up run, then the median of three timed runs
/// (`--quick`: a single timed run). Deterministic workloads make the
/// counters of any iteration the counters of all of them.
fn measure(quick: bool, mut run: impl FnMut() -> (f64, Counters)) -> (f64, Counters) {
    let _ = run(); // warm-up, untimed
    if quick {
        return run();
    }
    let (s0, counters) = run();
    let (s1, c1) = run();
    let (s2, c2) = run();
    debug_assert_eq!(counters, c1);
    debug_assert_eq!(counters, c2);
    let mut secs = [s0, s1, s2];
    secs.sort_by(f64::total_cmp);
    (secs[1], counters)
}

/// Times one (size, shards) cell with the concrete algorithm type the
/// scenario layer ships, so the panel measures the engine as
/// `Scenario::simulate` actually runs it.
struct TimeSharded<'c> {
    cfg: &'c SimConfig,
    cycles: u32,
    shards: usize,
    threads: usize,
    quick: bool,
}

impl SpecVisitor for TimeSharded<'_> {
    type Out = (f64, Counters);

    fn visit<A: RoutingAlgorithm + 'static>(self, algo: A) -> (f64, Counters) {
        let cfg = self.cfg;
        measure(self.quick, || {
            let pattern = TrafficGen::new(cfg.pattern, algo.topology().num_nodes());
            let rate = cfg.injection.mean_rate();
            let mut eng = Engine::new(
                &algo,
                cfg.buffer_depth,
                cfg.flits_per_packet,
                pattern,
                &move |_| Box::new(Bernoulli::new(rate)) as Box<dyn InjectionProcess>,
                cfg.seed,
            );
            eng.set_injection_limit(cfg.injection_limit);
            eng.set_request_reply(cfg.request_reply);
            if self.shards <= 1 {
                let start = Instant::now();
                eng.run_wheel(self.cycles);
                (start.elapsed().as_secs_f64(), eng.counters())
            } else {
                let mut plan = eng.shard_plan(self.shards, self.threads);
                let start = Instant::now();
                eng.run_wheel_sharded(self.cycles, &mut plan);
                (start.elapsed().as_secs_f64(), eng.counters())
            }
        })
    }
}

fn main() {
    let mut quick = false;
    let mut out_dir = std::path::PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out_dir = args
                    .next()
                    .unwrap_or_else(|| usage("missing path after --out"))
                    .into();
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("host parallelism: {host_cpus} CPU(s)");
    if host_cpus == 1 {
        eprintln!("note: single-CPU host — the panel measures sharding overhead, not speedup");
    }

    let mut cells: Vec<Cell> = Vec::new();
    for (name, full_cycles) in SIZES {
        if quick && name == "tree-16k" {
            continue; // the 16k rung is too slow for a smoke run
        }
        let cycles = if quick {
            (full_cycles / 10).max(100)
        } else {
            full_cycles
        };
        let scenario = named(name).unwrap_or_else(|| panic!("registry entry {name} missing"));
        let cfg = scenario.config_at(LOAD);
        let (nodes, routers) = scenario.with_algorithm(Geom);
        let mut serial: Option<Counters> = None;
        for shards in SHARDS {
            if shards > routers {
                continue; // the plan would clamp; skip the duplicate cell
            }
            let threads = shards.min(host_cpus);
            let (secs, counters) = scenario.with_algorithm(TimeSharded {
                cfg: &cfg,
                cycles,
                shards,
                threads,
                quick,
            });
            match &serial {
                None => serial = Some(counters),
                Some(base) => assert_eq!(
                    *base, counters,
                    "{name} with {shards} shards diverged from the serial run — panel void"
                ),
            }
            let cell = Cell {
                config: name.to_string(),
                nodes,
                routers,
                cycles,
                shards,
                threads,
                secs,
                flit_moves: counters.flit_moves,
            };
            eprintln!(
                "{:14} {:>6} nodes, {} shard(s) x {} thread(s): {:>8.1} Kcycles/s, \
                 {:>8.2} Mmoves/s",
                cell.config,
                cell.nodes,
                cell.shards,
                cell.threads,
                cell.cycles_per_sec() / 1e3,
                cell.moves_per_sec() / 1e6,
            );
            cells.push(cell);
        }
    }

    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let csv_path = out_dir.join("scale_sweep.csv");
    std::fs::write(&csv_path, to_csv(&cells)).expect("write scale_sweep.csv");
    let json_path = out_dir.join("scale_sweep.json");
    std::fs::write(&json_path, to_json(&cells, host_cpus, quick)).expect("write scale_sweep.json");
    eprintln!("wrote {} and {}", csv_path.display(), json_path.display());
}

/// Reads the geometry of the scenario's topology.
struct Geom;

impl SpecVisitor for Geom {
    type Out = (usize, usize);
    fn visit<A: RoutingAlgorithm + 'static>(self, algo: A) -> (usize, usize) {
        let w = Wiring::from_topology(algo.topology());
        (w.num_nodes, w.num_routers)
    }
}

/// Serial-baseline seconds for the cell's config, for the speedup
/// column.
fn serial_secs(cells: &[Cell], config: &str) -> f64 {
    cells
        .iter()
        .find(|c| c.config == config && c.shards == 1)
        .map(|c| c.secs)
        .unwrap_or(f64::NAN)
}

fn to_csv(cells: &[Cell]) -> String {
    let mut s = String::from(
        "config,nodes,routers,cycles,shards,threads,seconds,cycles_per_sec,\
         flit_moves,flit_moves_per_sec,speedup_vs_serial\n",
    );
    for c in cells {
        let speedup = serial_secs(cells, &c.config) / c.secs;
        let _ = writeln!(
            s,
            "{},{},{},{},{},{},{:.6},{:.0},{},{:.0},{:.3}",
            c.config,
            c.nodes,
            c.routers,
            c.cycles,
            c.shards,
            c.threads,
            c.secs,
            c.cycles_per_sec(),
            c.flit_moves,
            c.moves_per_sec(),
            speedup,
        );
    }
    s
}

fn to_json(cells: &[Cell], host_cpus: usize, quick: bool) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"benchmark\": \"sharded stepper strong/weak scaling panel\",\n");
    let _ = writeln!(
        j,
        "  \"workload\": \"uniform traffic at offered load {LOAD}, size ladder 256..16384 nodes\","
    );
    j.push_str(
        "  \"protocol\": \"per cell: one untimed warm-up iteration, then the median \
         elapsed time of three timed iterations; sharded counters asserted bit-identical \
         to the serial run\",\n",
    );
    let _ = writeln!(j, "  \"host_cpus\": {host_cpus},");
    // `host_cpus` is the historical key; record the raw probe under its
    // own name too so artifacts from different hosts compare directly.
    let _ = writeln!(
        j,
        "  \"available_parallelism\": {},",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let _ = writeln!(j, "  \"quick\": {quick},");
    if host_cpus == 1 {
        j.push_str(
            "  \"note\": \"single-CPU host: threads are capped at 1, so every cell runs \
             all shards on the caller thread and speedup_vs_serial reports sharding \
             overhead, not parallel speedup\",\n",
        );
    }
    j.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let speedup = serial_secs(cells, &c.config) / c.secs;
        let _ = write!(
            j,
            "    {{ \"config\": {:?}, \"nodes\": {}, \"routers\": {}, \"cycles\": {}, \
             \"shards\": {}, \"threads\": {}, \"seconds\": {:.6}, \
             \"cycles_per_sec\": {:.0}, \"flit_moves\": {}, \"flit_moves_per_sec\": {:.0}, \
             \"speedup_vs_serial\": {:.3} }}",
            c.config,
            c.nodes,
            c.routers,
            c.cycles,
            c.shards,
            c.threads,
            c.secs,
            c.cycles_per_sec(),
            c.flit_moves,
            c.moves_per_sec(),
            speedup,
        );
        j.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ]\n}\n");
    j
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: scale_sweep [--quick] [--out <dir>]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
