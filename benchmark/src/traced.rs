//! The traced run of one workload: replay its operations in-process
//! under spans, run the comparison legs (plain library calls, the other
//! steppers, the sharded variants), the layer probes and the CLI-only
//! measurements, and turn the sums into the per-layer metrics.

use crate::e2e::{run_pass, Ctx, Plan};
use crate::probes;
use crate::replay::{replay_sim, Mode, Replay, Sums};
use crate::span::{self, Tracer};
use crate::spec::{self, Op, PAPER_SATURATION};
use crate::stats::median;
use netsim::scenario::Scenario;
use netstats::cache::ResultCache;
use std::collections::BTreeMap;
use std::path::PathBuf;

pub struct Report {
    /// `(name, unit, value)` of every per-layer metric, in print order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// `(layer, self seconds, share)` over the replayed operations.
    pub layer_shares: Vec<(String, f64, f64)>,
    pub written: Vec<PathBuf>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// The simulations a pass runs through the plain (mirrored) path, in
/// order: `(scenario, load)`.
fn mirrored_sims(plan: &Plan, seed: u64) -> Vec<(Scenario, f64)> {
    match plan {
        Plan::Cli(ops) => ops
            .iter()
            .filter(|op| matches!(op, Op::Run { .. } | Op::Sweep { .. }))
            .flat_map(|op| {
                let s = op.scenario(seed).expect("run and sweep simulate");
                op.loads().into_iter().map(move |l| (s.clone(), l))
            })
            .collect(),
        Plan::Serve(reqs) => reqs
            .iter()
            .enumerate()
            .filter(|(i, r)| r.first == *i)
            .map(|(_, r)| {
                (
                    spec::scenario_for(r.scenario, spec::Len::Default, seed),
                    r.load,
                )
            })
            .collect(),
    }
}

/// `num / den`, or 0 where there is nothing to divide by (the metric
/// does not apply to the workload).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `num / den - 1`, or 0 where the base was not measured.
fn excess(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den - 1.0
    } else {
        0.0
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut tr = Tracer::new();
    let plan = Plan::of(&ctx.workload, ctx.seed);
    let dir = ctx.scratch.join("replay");
    std::fs::create_dir_all(&dir).expect("create replay directory");
    let sharded = Mode::Sharded {
        shards: 2,
        threads: ctx.threads,
    };
    let sims = mirrored_sims(&plan, ctx.seed);
    let mut sums = Sums::default();
    if let Some((s, load)) = sims.first() {
        probes::rss_after_new(&mut tr, &mut sums, s, *load);
    }
    let mut rp = Replay {
        tr: &mut tr,
        sums,
        dir: dir.clone(),
        seed: ctx.seed,
        mode: if ctx.workload == "scale-shards" {
            sharded
        } else {
            Mode::Active
        },
        failures: Vec::new(),
        attempted: 0,
        csvs: BTreeMap::new(),
        sims: Vec::new(),
        request_secs: Vec::new(),
    };

    // 1. The operations themselves, each under an `op` root span.
    match &plan {
        Plan::Cli(ops) => ops.iter().for_each(|op| rp.op(op)),
        Plan::Serve(reqs) => {
            let cache = ResultCache::open(dir.join("cache"));
            for (i, req) in reqs.iter().enumerate() {
                rp.request(i, req, &cache);
            }
        }
    }
    let Replay {
        mut sums,
        mut failures,
        mut attempted,
        csvs,
        sims: mirrored,
        request_secs,
        mode,
        ..
    } = rp;
    if ctx.workload == "artifacts" {
        // The replay must reproduce the CLI's contract: straight,
        // resumed and traced runs render the same CSV bytes.
        for other in ["b.csv", "c.csv"] {
            if !csvs.contains_key(other) || csvs.get(other) != csvs.get("a.csv") {
                failures.push(format!("replayed {other} differs from replayed a.csv"));
            }
        }
    }

    // 2. The same simulations through the library's own entry point,
    // unspanned: the reference the mirror must equal, `sim.simulate_s`,
    // and the base of `trace.overhead`.
    let mut plain_s = Vec::with_capacity(sims.len());
    for (i, (s, load)) in sims.iter().enumerate() {
        let root = tr.begin("plain");
        let (out, secs) = tr.time("sim.simulate", || match mode {
            Mode::Sharded { shards, threads } => s.try_simulate_sharded(*load, shards, threads),
            _ => s.try_simulate(*load),
        });
        tr.end(root);
        plain_s.push(secs);
        sums.add("sim.simulate_s", secs);
        match out {
            Ok(out)
                if mirrored
                    .get(i)
                    .is_some_and(|m| m.outcome == format!("{out:?}")) => {}
            Ok(_) => failures.push(format!(
                "{} at load {load}: the mirrored protocol and Scenario::try_simulate disagree",
                s.label()
            )),
            Err(e) => failures.push(format!("{} at load {load}: {e}", s.label())),
        }
    }
    if let Plan::Cli(ops) = &plan {
        // What the sweep pool adds over its points run one by one.
        let mut next = 0;
        for op in ops {
            let points = op.loads().len();
            if let (Op::Sweep { .. }, Some(s)) = (op, op.scenario(ctx.seed)) {
                let root = tr.begin("plain");
                let (out, secs) = tr.time("scenario.sweep", || s.try_sweep_outcomes(&op.loads()));
                tr.end(root);
                if let Err(e) = out {
                    failures.push(format!("{} sweep: {e}", s.label()));
                }
                let one_by_one: f64 = plain_s[next..next + points].iter().sum();
                sums.add("scenario.sweep_overhead_s", secs - one_by_one);
            }
            if matches!(op, Op::Run { .. } | Op::Sweep { .. }) {
                next += points;
            }
        }
    }

    // 3. The other execution modes over the same simulations: what a
    // different default would buy, and the sharding decomposition.
    let legs: Vec<Mode> = if ctx.workload == "scale-shards" {
        let mut legs = vec![Mode::Active];
        if ctx.threads > 1 {
            legs.push(Mode::Sharded {
                shards: 2,
                threads: 1,
            });
        }
        legs.push(Mode::WheelSharded {
            shards: 2,
            threads: ctx.threads,
        });
        legs
    } else {
        vec![Mode::Soa, Mode::Wheel]
    };
    for leg in legs {
        for (i, (s, load)) in sims.iter().enumerate() {
            let root = tr.begin("leg");
            let out = replay_sim(&mut tr, &mut sums, s, *load, leg);
            tr.end(root);
            match out {
                Ok(m)
                    if mirrored
                        .get(i)
                        .is_some_and(|r| r.outcome == format!("{:?}", m.outcome)) => {}
                Ok(_) => failures.push(format!(
                    "{} at load {load}: {leg:?} disagrees with the default stepper",
                    s.label()
                )),
                Err(e) => failures.push(format!("{} at load {load} ({leg:?}): {e}", s.label())),
            }
        }
    }

    // 4. Layer probes.
    let mut distinct: Vec<(Scenario, f64, usize)> = Vec::new();
    for (s, load) in &sims {
        match distinct
            .iter_mut()
            .find(|(d, _, _)| d.label() == s.label() && d.topology() == s.topology())
        {
            Some(entry) => entry.2 += 1,
            None => distinct.push((s.clone(), *load, 1)),
        }
    }
    for (s, load, count) in &distinct {
        probes::construction(&mut tr, &mut sums, s, *count);
        probes::per_call(&mut tr, &mut sums, s, *load, ctx.seed);
    }
    probes::design_space(&mut tr, &mut sums);
    let (mut healthy_ns_per_cycle, mut faulted_ns_per_cycle) = (0.0, 0.0);
    if ctx.workload == "artifacts" {
        let healthy = spec::scenario_for("cube-duato", spec::Len::Default, ctx.seed);
        probes::snapshot(&mut tr, &mut sums, &healthy, 0.3, 7000);
        // The healthy twin of the faulted run: the base of
        // `fault.overhead`, and (with the library's plain run) of
        // `telemetry.probe_overhead`.
        let root = tr.begin("leg");
        let (plain, plain_secs) = tr.time("sim.simulate", || healthy.try_simulate(0.3));
        let reference = replay_sim(&mut tr, &mut sums, &healthy, 0.3, Mode::Active);
        tr.end(root);
        match (plain, reference) {
            (Ok(plain), Ok(m)) => {
                if format!("{plain:?}") != format!("{:?}", m.outcome) {
                    failures.push("healthy reference: mirror and try_simulate disagree".into());
                }
                healthy_ns_per_cycle = m.stepping_s * 1e9 / healthy.run_length().total as f64;
                sums.add("telemetry.plain_s", plain_secs);
            }
            (Err(e), _) | (_, Err(e)) => failures.push(format!("healthy reference: {e}")),
        }
        // The faulted run is the workload's one mirrored operation.
        if let (Some(d), Some((s, _))) = (mirrored.last(), sims.last()) {
            faulted_ns_per_cycle = d.stepping_s * 1e9 / s.run_length().total as f64;
        }
    }

    // 5. What only the real binary can show: process spawn, the fixed
    // cost of a command, and the serve loop's request latencies.
    let root = tr.begin("cli");
    let spawn_s = median(
        &(0..9)
            .map(|_| {
                let mut cmd = ctx.command(&dir);
                cmd.arg("list").stdout(std::process::Stdio::null());
                tr.time("cli.spawn", || {
                    crate::child::spawn(&mut cmd)
                        .and_then(|r| r.wait())
                        .expect("spawn netperf list")
                        .wall_s
                })
                .0
            })
            .collect::<Vec<_>>(),
    );
    let fixed_s = median(
        &(0..3)
            .map(|_| {
                let open = tr.begin("cli.twin");
                let pass = run_pass(ctx, &plan, &ctx.scratch.join("twin"), true);
                tr.end(open);
                attempted += plan.len() as u64;
                failures.extend(pass.failures);
                pass.wall_s / plan.len() as f64
            })
            .collect::<Vec<_>>(),
    );
    if let Plan::Serve(reqs) = &plan {
        let served = ctx.scratch.join("served");
        let open = tr.begin("cli.serve");
        let pass = run_pass(ctx, &plan, &served, false);
        tr.end(open);
        attempted += reqs.len() as u64;
        let of = |hit: bool, ms: &[f64]| -> Vec<f64> {
            reqs.iter()
                .enumerate()
                .filter(|(i, r)| (r.first != *i) == hit)
                .map(|(i, _)| ms[i])
                .collect()
        };
        let in_process_hit_ms = median(
            &request_secs
                .iter()
                .filter(|(hit, _)| *hit)
                .map(|(_, s)| s * 1e3)
                .collect::<Vec<_>>(),
        );
        let hit_p50 = median(&of(true, &pass.op_ms));
        sums.add("serve.hit_p50_ms", hit_p50);
        sums.add("serve.miss_p50_ms", median(&of(false, &pass.op_ms)));
        sums.add("serve.hit_overhead_ms", hit_p50 - in_process_hit_ms);
        sums.add("serve.requests", reqs.len() as f64);
        sums.add("serve.errors", pass.failures.len() as f64);
        failures.extend(pass.failures);
        // Hits over requests, read from the manifests the server's
        // children wrote: 0.8 by construction.
        let (mut hits, mut total) = (0.0, 0.0);
        for i in 0..reqs.len() {
            let path = served.join(crate::checks::manifest_sibling(&spec::Request::csv(i)));
            let cache = std::fs::read_to_string(&path)
                .ok()
                .and_then(|t| crate::json::parse(&t).ok())
                .and_then(|m| m.get("cache").cloned());
            let count = |k: &str| {
                cache
                    .as_ref()
                    .and_then(|c| c.get(k)?.as_f64())
                    .unwrap_or(0.0)
            };
            hits += count("hits");
            total += count("hits") + count("misses");
        }
        let hit_share = ratio(hits, total);
        sums.add("netstats.cache_hit_share", hit_share);
        if (hit_share - 0.8).abs() > 1e-9 {
            failures.push(format!("cache hit share {hit_share}, 0.8 by construction"));
        }
    }
    tr.end(root);

    // 6. Metrics from the sums.
    let g = |key: &str| sums.get(key);
    let stepping =
        |prefix: &str| g(&format!("{prefix}.warmup_s")) + g(&format!("{prefix}.measure_s"));
    let per_cycle = |prefix: &str| ratio(stepping(prefix) * 1e9, g(&format!("{prefix}.cycles")));
    let per_move = |prefix: &str| ratio(stepping(prefix) * 1e9, g(&format!("{prefix}.flit_moves")));
    // With one CPU the sharded replay itself is the one-thread tiling run.
    let shard = if g("shard.cycles") > 0.0 {
        "shard"
    } else {
        "shard.t1"
    };
    let configs = g("per_call.configs").max(1.0);
    let replayed_sim_s = g("replay.sim_s");
    let paper_sat_err = if ctx.workload == "paper-sat" {
        PAPER_SATURATION
            .iter()
            .map(|(name, paper)| {
                let label = spec::scenario_for(name, spec::Len::Quick, ctx.seed)
                    .label()
                    .to_string();
                let got = mirrored
                    .iter()
                    .find(|m| m.label == label)
                    .map_or(0.0, |m| m.accepted_fraction);
                (got - paper).abs() / paper
            })
            .sum::<f64>()
            / PAPER_SATURATION.len() as f64
    } else {
        0.0
    };
    // Everything else is a plain sum under the metric's own name.
    let derived: BTreeMap<&str, f64> = [
        ("routing.route_ns", g("routing.route_ns") / configs),
        ("traffic.dest_ns", g("traffic.dest_ns") / configs),
        ("traffic.inject_ns", g("traffic.inject_ns") / configs),
        (
            "scenario.state_ident_ns",
            g("scenario.state_ident_ns") / configs,
        ),
        ("engine.ns_per_cycle", per_cycle("engine")),
        ("engine.ns_per_flit_move", per_move("engine")),
        ("engine.soa.ns_per_cycle", per_cycle("engine.soa")),
        ("engine.soa.ns_per_flit_move", per_move("engine.soa")),
        ("engine.wheel.ns_per_cycle", per_cycle("engine.wheel")),
        ("engine.wheel.ns_per_flit_move", per_move("engine.wheel")),
        ("shard.plan_s", g(&format!("{shard}.plan_s"))),
        ("shard.ns_per_cycle", per_cycle(shard)),
        ("shard.t1.ns_per_cycle", per_cycle("shard.t1")),
        (
            "shard.speedup",
            ratio(per_cycle("engine"), per_cycle(shard)),
        ),
        (
            "shard.cpu_per_wall",
            ratio(g(&format!("{shard}.cpu_s")), stepping(shard)),
        ),
        ("shard.wheel.ns_per_cycle", per_cycle("shard.wheel")),
        (
            "snapshot.bytes",
            ratio(g("snapshot.bytes"), g("snapshot.encodes")),
        ),
        (
            "sim.overhead_share",
            if replayed_sim_s > 0.0 {
                1.0 - (g("replay.engine_s")) / replayed_sim_s
            } else {
                0.0
            },
        ),
        ("sim.paper_sat_err", paper_sat_err),
        (
            "fault.overhead",
            excess(faulted_ns_per_cycle, healthy_ns_per_cycle),
        ),
        (
            "telemetry.probe_overhead",
            excess(g("sim.traced_s"), g("telemetry.plain_s")),
        ),
        ("cli.spawn_s", spawn_s),
        ("cli.fixed_s", fixed_s),
        (
            "trace.overhead",
            excess(replayed_sim_s, g("sim.simulate_s")),
        ),
    ]
    .into_iter()
    .collect();
    let metrics = spec::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = derived.get(name).copied().unwrap_or_else(|| g(name));
            (name, unit, value)
        })
        .collect();

    // 7. The trace and the per-layer self times, written when the run
    // ends.
    let layer_shares = span::layer_shares(&tr.spans, "op");
    let out = ctx.root.join("benchmark/out");
    let trace_path = out.join(format!("trace.{}.json", ctx.workload));
    let layers_path = out.join(format!("layers.{}.json", ctx.workload));
    let layers_json = format!(
        "{{\"workload\": {}, \"seed\": {}, \"op_total_s\": {}, \"layers\": [\n{}\n]}}\n",
        crate::json::quote(&ctx.workload),
        ctx.seed,
        span::total_s(&tr.spans, "op"),
        layer_shares
            .iter()
            .map(|(l, s, share)| format!(
                "  {{\"layer\": {}, \"self_s\": {s}, \"share\": {share}}}",
                crate::json::quote(l)
            ))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let mut written = Vec::new();
    for (path, text) in [
        (trace_path, span::chrome_trace(&tr.spans, &ctx.workload)),
        (layers_path, layers_json),
    ] {
        match span::write(&path, &text) {
            Ok(()) => written.push(path),
            Err(e) => failures.push(format!("{}: {e}", path.display())),
        }
    }
    Report {
        metrics,
        layer_shares,
        written,
        attempted,
        failures,
    }
}
