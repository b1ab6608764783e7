//! What the benchmark runs and what it may print: the six workloads as
//! structured operations (rendered to `netperf` argv for the end-to-end
//! run, replayed through the crates for the traced run), the zero-work
//! twin rewrite, and the metric name tables `BENCHMARK.json` declares.

use netsim::scenario::{named, RunLength, Scenario, SeedMode, PAPER_FIVE};
use traffic::Rng64;

/// Workload names, fixed: later issues cite them.
pub const WORKLOADS: [&str; 6] = [
    "paper-sat",
    "paper-lowload",
    "scale-serial",
    "scale-shards",
    "serve-mix",
    "artifacts",
];

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("ns_per_node_cycle", "ns"),
    ("peak_rss_mb", "MiB"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric, in print order. A metric
/// that does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("topology.build_s", "s"),
    ("routing.build_s", "s"),
    ("routing.route_ns", "ns"),
    ("traffic.dest_ns", "ns"),
    ("traffic.inject_ns", "ns"),
    ("wiring.build_s", "s"),
    ("scenario.build_s", "s"),
    ("scenario.state_ident_ns", "ns"),
    ("scenario.sweep_overhead_s", "s"),
    ("engine.new_s", "s"),
    ("engine.warmup_s", "s"),
    ("engine.measure_s", "s"),
    ("engine.cycles", "count"),
    ("engine.flit_moves", "count"),
    ("engine.ns_per_cycle", "ns"),
    ("engine.ns_per_flit_move", "ns"),
    ("engine.soa.ns_per_cycle", "ns"),
    ("engine.soa.ns_per_flit_move", "ns"),
    ("engine.wheel.ns_per_cycle", "ns"),
    ("engine.wheel.ns_per_flit_move", "ns"),
    ("engine.to_aos_s", "s"),
    ("engine.rss_mb_after_new", "MiB"),
    ("shard.plan_s", "s"),
    ("shard.ns_per_cycle", "ns"),
    ("shard.t1.ns_per_cycle", "ns"),
    ("shard.speedup", "ratio"),
    ("shard.cpu_per_wall", "ratio"),
    ("shard.wheel.ns_per_cycle", "ns"),
    ("snapshot.take_s", "s"),
    ("snapshot.encode_s", "s"),
    ("snapshot.decode_s", "s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.state_hash_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("sim.simulate_s", "s"),
    ("sim.overhead_share", "fraction"),
    ("sim.paper_sat_err", "fraction"),
    ("fault.compile_s", "s"),
    ("fault.overhead", "ratio"),
    ("netstats.csv_render_s", "s"),
    ("netstats.manifest_render_s", "s"),
    ("netstats.cache_lookup_s", "s"),
    ("netstats.cache_store_s", "s"),
    ("netstats.cache_hit_share", "fraction"),
    ("telemetry.probe_overhead", "ratio"),
    ("telemetry.export_s", "s"),
    ("telemetry.events", "count"),
    ("telemetry.bytes", "bytes"),
    ("costmodel.enumerate_s", "s"),
    ("costmodel.candidates", "count"),
    ("costmodel.feasible", "count"),
    ("analytic.screen_s", "s"),
    ("cli.spawn_s", "s"),
    ("cli.fixed_s", "s"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.hit_overhead_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.errors", "count"),
    ("trace.overhead", "ratio"),
];

/// The paper's reported uniform-traffic saturation points (Sections
/// 8-10; the same table as `crates/bench/src/bin/summary.rs`), for the
/// three `paper-sat` configurations.
pub const PAPER_SATURATION: [(&str, f64); 3] =
    [("cube-det", 0.60), ("cube-duato", 0.80), ("tree-4vc", 0.72)];

/// Run length of one operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Len {
    /// The registry entry's own (the paper's 2000/20000 unless the entry
    /// says otherwise).
    Default,
    /// `--quick`: 1000 warm-up, 6000 total.
    Quick,
    /// `--warmup W --cycles T`.
    Custom { warmup: u32, total: u32 },
}

/// One operation of a command-line workload. File names are relative to
/// the pass directory the command runs in.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Run {
        scenario: &'static str,
        load: f64,
        len: Len,
        shards: usize,
        csv: String,
    },
    Sweep {
        scenario: &'static str,
        grid: [f64; 3],
        len: Len,
        csv: String,
    },
    Checkpointed {
        scenario: &'static str,
        load: f64,
        every: u32,
        snapshot: &'static str,
        csv: &'static str,
    },
    Resume {
        scenario: &'static str,
        load: f64,
        snapshot: &'static str,
        csv: &'static str,
    },
    SnapshotInfo {
        snapshot: &'static str,
    },
    Traced {
        scenario: &'static str,
        load: f64,
        stem: &'static str,
        csv: &'static str,
    },
}

/// The load grid exactly as `netperf sweep --grid a:b:step` expands it
/// (the accumulated floats feed the per-point seeds, so the replay must
/// reproduce them bit for bit).
pub fn expand_grid([a, b, step]: [f64; 3]) -> Vec<f64> {
    let mut g = Vec::new();
    let mut x = a;
    while x <= b + 1e-9 {
        g.push(x);
        x += step;
    }
    g
}

impl Op {
    /// The registry scenario this operation simulates, with the
    /// operation's run length and the seed salt applied; `None` for
    /// `snapshot`, which simulates nothing.
    pub fn scenario(&self, seed: u64) -> Option<Scenario> {
        let (name, len) = match self {
            Op::Run { scenario, len, .. } | Op::Sweep { scenario, len, .. } => (*scenario, *len),
            Op::Checkpointed { scenario, .. }
            | Op::Resume { scenario, .. }
            | Op::Traced { scenario, .. } => (*scenario, Len::Default),
            Op::SnapshotInfo { .. } => return None,
        };
        Some(scenario_for(name, len, seed))
    }

    /// Offered loads of the result rows this operation delivers.
    pub fn loads(&self) -> Vec<f64> {
        match self {
            Op::Sweep { grid, .. } => expand_grid(*grid),
            Op::Run { load, .. }
            | Op::Checkpointed { load, .. }
            | Op::Resume { load, .. }
            | Op::Traced { load, .. } => vec![*load],
            Op::SnapshotInfo { .. } => Vec::new(),
        }
    }

    /// The CSV this operation writes, if any.
    pub fn csv(&self) -> Option<&str> {
        match self {
            Op::Run { csv, .. } | Op::Sweep { csv, .. } => Some(csv),
            Op::Checkpointed { csv, .. } | Op::Resume { csv, .. } | Op::Traced { csv, .. } => {
                Some(csv)
            }
            Op::SnapshotInfo { .. } => None,
        }
    }

    /// `netperf` arguments for this operation.
    pub fn argv(&self, seed: u64) -> Vec<String> {
        let mut a: Vec<String> = Vec::new();
        let mut push = |parts: &[&str]| a.extend(parts.iter().map(|s| s.to_string()));
        let len_flags = |len: &Len| -> Vec<String> {
            match len {
                Len::Default => vec![],
                Len::Quick => vec!["--quick".into()],
                Len::Custom { warmup, total } => vec![
                    "--warmup".into(),
                    warmup.to_string(),
                    "--cycles".into(),
                    total.to_string(),
                ],
            }
        };
        match self {
            Op::Run {
                scenario,
                load,
                len,
                shards,
                csv,
            } => {
                push(&["run", scenario, "--load", &load.to_string()]);
                a.extend(len_flags(len));
                if *shards > 1 {
                    a.extend(["--shards".to_string(), shards.to_string()]);
                }
                a.extend(["--csv".to_string(), csv.clone()]);
            }
            Op::Sweep {
                scenario,
                grid: [lo, hi, step],
                len,
                csv,
            } => {
                push(&["sweep", scenario, "--grid", &format!("{lo}:{hi}:{step}")]);
                a.extend(len_flags(len));
                a.extend(["--csv".to_string(), csv.clone()]);
            }
            Op::Checkpointed {
                scenario,
                load,
                every,
                snapshot,
                csv,
            } => push(&[
                "run",
                scenario,
                "--load",
                &load.to_string(),
                "--checkpoint-every",
                &every.to_string(),
                "--snapshot",
                snapshot,
                "--csv",
                csv,
            ]),
            Op::Resume {
                scenario,
                load,
                snapshot,
                csv,
            } => push(&[
                "run",
                scenario,
                "--load",
                &load.to_string(),
                "--resume",
                snapshot,
                "--csv",
                csv,
            ]),
            Op::SnapshotInfo { snapshot } => {
                push(&["snapshot", "--json", snapshot]);
                return a;
            }
            Op::Traced {
                scenario,
                load,
                stem,
                csv,
            } => push(&[
                "run",
                scenario,
                "--load",
                &load.to_string(),
                "--trace",
                stem,
                "--csv",
                csv,
            ]),
        }
        a.extend(["--seed".to_string(), seed.to_string()]);
        a
    }
}

/// A registry scenario at the given run length and seed salt — what
/// `netperf run <name> [--quick | --warmup W --cycles T] --seed N`
/// resolves to.
pub fn scenario_for(name: &str, len: Len, seed: u64) -> Scenario {
    let s = named(name).unwrap_or_else(|| panic!("{name} is not in the scenario registry"));
    let s = match len {
        Len::Default => s,
        Len::Quick => s.with_run_length(RunLength::quick()),
        Len::Custom { warmup, total } => s.with_run_length(RunLength { warmup, total }),
    };
    s.with_seed(SeedMode::Derived { salt: seed })
}

/// The zero-work twin of a `netperf` command: the same command with a
/// two-cycle run, so everything a user pays except stepping remains
/// (spawn, parsing, construction, rendering, I/O). Commands that do not
/// simulate are returned unchanged; a checkpoint cadence becomes 1 so
/// the twin still writes the snapshot its successor resumes.
pub fn zero_work_twin(argv: &[String]) -> Vec<String> {
    if !matches!(argv.first().map(String::as_str), Some("run" | "sweep")) {
        return argv.to_vec();
    }
    let mut out = Vec::with_capacity(argv.len() + 4);
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {}
            "--warmup" | "--cycles" => {
                it.next();
            }
            "--checkpoint-every" => {
                it.next();
                out.extend(["--checkpoint-every".to_string(), "1".to_string()]);
            }
            _ => out.push(a.clone()),
        }
    }
    out.extend(["--warmup", "1", "--cycles", "2"].map(String::from));
    out
}

/// One `serve-mix` request: a `run` of a tiny registry scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub scenario: &'static str,
    pub load: f64,
    /// Index (into the request list) of the first request with the same
    /// key: itself for a miss, an earlier request for a hit.
    pub first: usize,
}

impl Request {
    pub fn csv(index: usize) -> String {
        format!("r{index:03}.csv")
    }

    /// The request as `netperf run` arguments (what `serve` expands the
    /// JSON line back into).
    pub fn argv(&self, index: usize, seed: u64) -> Vec<String> {
        Op::Run {
            scenario: self.scenario,
            load: self.load,
            len: Len::Default,
            shards: 1,
            csv: Request::csv(index),
        }
        .argv(seed)
    }
}

/// Render `run <name> --flag value ...` as the flat JSON object
/// `netperf serve` reads: `op`, `name`, then one string field per flag.
pub fn request_line(argv: &[String]) -> String {
    let mut fields = vec![format!("\"op\": {}", crate::json::quote(&argv[0]))];
    fields.push(format!("\"name\": {}", crate::json::quote(&argv[1])));
    for pair in argv[2..].chunks(2) {
        let key = pair[0].trim_start_matches("--");
        fields.push(format!(
            "{}: {}",
            crate::json::quote(key),
            crate::json::quote(&pair[1])
        ));
    }
    format!("{{{}}}", fields.join(", "))
}

/// Distinct `serve-mix` keys: two tiny scenarios at thirty loads each.
pub const SERVE_DISTINCT: usize = 60;
/// Repeats of each distinct key after its first (miss) occurrence.
pub const SERVE_REPEATS: usize = 4;

/// The `serve-mix` request list: 60 distinct requests plus 4 repeats of
/// each, in a seeded shuffle. The first occurrence of a key is the miss;
/// 240 of 300 are hits by construction.
pub fn serve_requests(seed: u64) -> Vec<Request> {
    let mut keys: Vec<usize> = (0..SERVE_DISTINCT)
        .flat_map(|k| std::iter::repeat_n(k, 1 + SERVE_REPEATS))
        .collect();
    Rng64::seed_from(seed ^ 0x5E12_7E4D).shuffle(&mut keys);
    let mut first_seen = [usize::MAX; SERVE_DISTINCT];
    keys.iter()
        .enumerate()
        .map(|(i, &k)| {
            if first_seen[k] == usize::MAX {
                first_seen[k] = i;
            }
            Request {
                scenario: ["cube-duato-tiny", "tree-2vc-tiny"][k % 2],
                load: 0.02 * (k / 2 + 1) as f64,
                first: first_seen[k],
            }
        })
        .collect()
}

/// The command list of one pass of a command-line workload (`serve-mix`
/// is a request list instead, see [`serve_requests`]).
pub fn ops(workload: &str) -> Vec<Op> {
    let scale = |shards| Op::Run {
        scenario: "tree-4ary-6",
        load: 0.5,
        len: Len::Custom {
            warmup: 200,
            total: 800,
        },
        shards,
        csv: "scale.csv".to_string(),
    };
    match workload {
        "paper-sat" => PAPER_SATURATION
            .iter()
            .map(|&(scenario, _)| Op::Run {
                scenario,
                load: 1.0,
                len: Len::Quick,
                shards: 1,
                csv: format!("{scenario}.csv"),
            })
            .collect(),
        "paper-lowload" => PAPER_FIVE
            .iter()
            .map(|&scenario| Op::Sweep {
                scenario,
                grid: [0.05, 0.2, 0.05],
                len: Len::Quick,
                csv: format!("{scenario}.csv"),
            })
            .collect(),
        "scale-serial" => vec![scale(1)],
        "scale-shards" => vec![scale(2)],
        "artifacts" => vec![
            Op::Checkpointed {
                scenario: "cube-duato",
                load: 0.3,
                every: 7000,
                snapshot: "s.npck",
                csv: "a.csv",
            },
            Op::Resume {
                scenario: "cube-duato",
                load: 0.3,
                snapshot: "s.npck",
                csv: "b.csv",
            },
            Op::SnapshotInfo { snapshot: "s.npck" },
            Op::Traced {
                scenario: "cube-duato",
                load: 0.3,
                stem: "t",
                csv: "c.csv",
            },
            Op::Run {
                scenario: "cube-duato-5pct",
                load: 0.3,
                len: Len::Default,
                shards: 1,
                csv: "d.csv".to_string(),
            },
        ],
        other => panic!("{other} has no command list"),
    }
}

/// `NETPERF_THREADS` for a workload: one everywhere except the threaded
/// sharding workload, which gets two when the host has them.
pub fn threads(workload: &str) -> usize {
    if workload == "scale-shards" {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
    } else {
        1
    }
}

/// Simulated work behind `(scenario, rows)` pairs: `(cycles,
/// node-cycles)`, each row counting its scenario's total run length.
pub fn simulated_work(rows: impl Iterator<Item = (Scenario, usize)>) -> (u64, u64) {
    rows.fold((0, 0), |(c, nc), (s, n)| {
        let cycles = s.run_length().total as u64 * n as u64;
        (c + cycles, nc + cycles * s.topology().num_nodes() as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn twin_rewrites_run_length_and_checkpoint_cadence() {
        assert_eq!(
            zero_work_twin(&strings(&[
                "run", "cube-det", "--load", "1", "--quick", "--csv", "x.csv"
            ])),
            strings(&[
                "run", "cube-det", "--load", "1", "--csv", "x.csv", "--warmup", "1", "--cycles",
                "2"
            ])
        );
        assert_eq!(
            zero_work_twin(&strings(&[
                "run",
                "tree-4ary-6",
                "--warmup",
                "200",
                "--cycles",
                "800",
                "--shards",
                "2"
            ])),
            strings(&[
                "run",
                "tree-4ary-6",
                "--shards",
                "2",
                "--warmup",
                "1",
                "--cycles",
                "2"
            ])
        );
        let twin = zero_work_twin(&ops("artifacts")[0].argv(0));
        let at = twin.iter().position(|a| a == "--checkpoint-every").unwrap();
        assert_eq!(twin[at + 1], "1");
        // Commands that simulate nothing are their own twin.
        let snap = strings(&["snapshot", "--json", "s.npck"]);
        assert_eq!(zero_work_twin(&snap), snap);
    }

    #[test]
    fn grid_matches_the_cli_expansion() {
        let g = expand_grid([0.05, 0.2, 0.05]);
        assert_eq!(g.len(), 4);
        assert_eq!(g[0], 0.05);
        // Accumulated, not multiplied: the third point is not 0.15.
        assert_eq!(g[2], 0.05 + 0.05 + 0.05);
    }

    #[test]
    fn serve_mix_is_sixty_misses_and_eighty_percent_hits() {
        for seed in [0, 1, 99] {
            let reqs = serve_requests(seed);
            assert_eq!(reqs.len(), 300);
            let misses = reqs.iter().enumerate().filter(|(i, r)| r.first == *i);
            assert_eq!(misses.count(), 60);
            for (i, r) in reqs.iter().enumerate() {
                assert!(r.first <= i);
                assert_eq!(
                    (reqs[r.first].scenario, reqs[r.first].load),
                    (r.scenario, r.load)
                );
            }
        }
        assert_eq!(serve_requests(3), serve_requests(3));
        assert_ne!(serve_requests(3), serve_requests(4));
    }

    #[test]
    fn request_line_is_flat_json() {
        let line = request_line(&serve_requests(0)[0].argv(7, 5));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("run"));
        assert_eq!(v.get("csv").unwrap().as_str(), Some("r007.csv"));
        assert_eq!(v.get("seed").unwrap().as_str(), Some("5"));
    }

    /// Every name the harness can print is declared in `BENCHMARK.json`
    /// with the same unit, a direction and (end to end) a bound.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let well_formed = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.as_bytes()[0].is_ascii_alphanumeric()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        };
        let declared =
            |key: &str| -> Vec<json::Value> { doc.get(key).unwrap().as_arr().unwrap().to_vec() };
        let field = |v: &json::Value, k: &str| v.get(k).and_then(|x| x.as_str().map(String::from));

        let workloads = declared("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, name) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(w, "name").as_deref(), Some(name));
            assert!(well_formed(name));
            assert!(field(w, "why").is_some_and(|why| !why.is_empty() && why.len() <= 200));
        }

        let e2e = declared("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, (name, unit)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(m, "name").as_deref(), Some(name));
            assert_eq!(field(m, "unit").as_deref(), Some(unit));
            assert!(well_formed(name));
            assert!(matches!(
                field(m, "better").as_deref(),
                Some("lower" | "higher")
            ));
            let bound = m.get("bound").and_then(json::Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        }

        let layers = declared("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, (name, unit)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(m, "name").as_deref(), Some(name));
            assert_eq!(field(m, "unit").as_deref(), Some(unit));
            assert!(well_formed(name));
            assert!(matches!(
                field(m, "better").as_deref(),
                Some("lower" | "higher")
            ));
        }
    }
}
