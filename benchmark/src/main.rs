//! The repo benchmark harness. `benchmark/run.sh` builds `netperf` and
//! this binary and runs it from the checkout root:
//!
//! ```sh
//! benchmark/run.sh --workload paper-sat --seed 0 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` runs the workload end to end through the real `netperf`
//! binary (child processes, untraced) and prints the end-to-end metrics;
//! `--trace 1` replays the same operations in-process through the
//! crates' public functions with a span around every call into a layer
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Without `--workload` every workload runs in turn. See README.md.

mod checks;
mod child;
mod e2e;
mod host;
mod json;
mod probes;
mod replay;
mod span;
mod spec;
mod stats;
mod traced;

use json::Value;
use std::path::{Path, PathBuf};

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    netperf: Option<PathBuf>,
    agree: Option<(PathBuf, PathBuf)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: netperf-benchmark --netperf <binary> [--workload <name>] [--seed N] \
         [--seconds S] [--trace 0|1]\n       netperf-benchmark --agree <set-a.jsonl> <set-b.jsonl>\n\
         workloads: {}",
        spec::WORKLOADS.join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: spec::WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 0,
        seconds: None,
        trace: false,
        netperf: None,
        agree: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                let w = value();
                if !spec::WORKLOADS.contains(&w.as_str()) {
                    eprintln!("error: unknown workload {w}");
                    usage();
                }
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--netperf" => args.netperf = Some(PathBuf::from(value())),
            "--agree" => args.agree = Some((PathBuf::from(value()), PathBuf::from(value()))),
            _ => usage(),
        }
    }
    args
}

/// `BENCHMARK.json` at the checkout root: the declared run length and
/// the end-to-end bounds.
struct Declared {
    run_seconds: f64,
    /// `(name, better, bound)` per end-to-end metric.
    end_to_end: Vec<(String, String, f64)>,
}

fn declared(root: &Path) -> Declared {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        fail(&format!(
            "{}: {e} (run from the checkout root)",
            path.display()
        ))
    });
    let doc = json::parse(&text).unwrap_or_else(|e| fail(&format!("BENCHMARK.json: {e}")));
    let str_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(String::from);
    let end_to_end = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                str_of(m, "name")?,
                str_of(m, "better")?,
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    Declared {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| fail("BENCHMARK.json: no run_seconds")),
        end_to_end,
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`, every value with all its digits. One operation
/// can fail several checks; `failed` counts at most every operation.
fn result_line(attempted: u64, failures: usize, metrics: &[(&str, &str, f64)]) -> String {
    let failed = (failures as u64).min(attempted);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failures == 0,
        body.join(", ")
    )
}

fn print_failures(failures: &[String]) {
    for f in failures.iter().take(20) {
        println!("FAILED  {f}");
    }
    if failures.len() > 20 {
        println!("FAILED  ... and {} more", failures.len() - 20);
    }
}

fn run_end_to_end(ctx: &e2e::Ctx, bounds: &Declared) -> bool {
    let load_before = host::load_1min();
    let report = e2e::run(ctx);
    println!(
        "== {} | end to end | seed {} | NETPERF_THREADS={} | 1-min load {:.2} -> {:.2}",
        ctx.workload,
        ctx.seed,
        ctx.threads,
        load_before,
        host::load_1min()
    );
    for m in &report.metrics {
        let bound = bounds
            .end_to_end
            .iter()
            .find(|(n, _, _)| n == m.name)
            .map_or(f64::NAN, |b| b.2);
        let (min, max) = m
            .passes
            .iter()
            .fold((f64::INFINITY, 0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let spread = stats::spread(&m.passes);
        // A median over passes that disagree by more than the bound
        // resolves nothing; say so rather than print it as a number.
        if spread > bound {
            println!(
                "{:<20} unresolved {:<9} spread {:.1}% > bound {:.0}%: passes {:?}",
                m.name,
                m.unit,
                spread * 100.0,
                bound * 100.0,
                m.passes
            );
        } else {
            println!(
                "{:<20} {:>14.6} {:<9} min {:.6} max {:.6} over {} passes",
                m.name,
                m.median,
                m.unit,
                min,
                max,
                m.passes.len()
            );
        }
    }
    let ops = e2e::Plan::of(&ctx.workload, ctx.seed).len();
    match stats::highest_supported_percentile(ops) {
        Some(p) if p >= 95.0 => println!(
            "req_p95_ms is a real p95: {ops} requests a pass, {} samples beyond it",
            stats::samples_beyond(ops, 95.0)
        ),
        _ => println!(
            "req_p95_ms is the pass's slowest command: {ops} operations a pass leave fewer than \
             ten samples beyond any tail percentile"
        ),
    }
    if let Some(err) = report.paper_sat_err {
        println!(
            "{:<20} {:>14.6} fraction  simulated: mean |accepted at offered 1.0 - paper saturation| / paper",
            "paper_sat_err", err
        );
    }
    print_failures(&report.failures);
    let metrics: Vec<(&str, &str, f64)> = report
        .metrics
        .iter()
        .map(|m| (m.name, m.unit, m.median))
        .collect();
    println!(
        "{}",
        result_line(report.attempted, report.failures.len(), &metrics)
    );
    report.failures.is_empty()
}

fn run_traced(ctx: &e2e::Ctx) -> bool {
    let load_before = host::load_1min();
    let report = traced::run(ctx);
    println!(
        "== {} | traced (in-process replay) | seed {} | threads {} | 1-min load {:.2} -> {:.2}",
        ctx.workload,
        ctx.seed,
        ctx.threads,
        load_before,
        host::load_1min()
    );
    for (name, unit, value) in &report.metrics {
        println!("{name:<30} {value:>16.6} {unit}");
    }
    println!("self time by layer (share of the replayed operations' total):");
    for (layer, secs, share) in &report.layer_shares {
        println!("  {layer:<22} {secs:>10.6} s  {:>6.2}%", share * 100.0);
    }
    for path in &report.written {
        println!("wrote {}", path.display());
    }
    print_failures(&report.failures);
    println!(
        "{}",
        result_line(report.attempted, report.failures.len(), &report.metrics)
    );
    report.failures.is_empty()
}

/// `--agree a b`: two sets of result lines (one `{"workload": ..,
/// "result": ..}` object per line, as `agree.sh` writes them) agree when
/// no end-to-end median of the second is worse than the first's by more
/// than the metric's bound, nothing failed, and the counts match.
fn agree(a: &Path, b: &Path, bounds: &Declared) -> bool {
    let load = |p: &Path| -> Vec<(String, Value)> {
        std::fs::read_to_string(p)
            .unwrap_or_else(|e| fail(&format!("{}: {e}", p.display())))
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                let v = json::parse(l).unwrap_or_else(|e| fail(&format!("{}: {e}", p.display())));
                let w = v.get("workload").and_then(Value::as_str).unwrap_or("?");
                (
                    w.to_string(),
                    v.get("result").cloned().unwrap_or(Value::Null),
                )
            })
            .collect()
    };
    let (set_a, set_b) = (load(a), load(b));
    let mut ok = set_a.len() == set_b.len() && !set_a.is_empty();
    if !ok {
        println!(
            "DISAGREE  the sets hold {} and {} results",
            set_a.len(),
            set_b.len()
        );
    }
    for ((wa, ra), (wb, rb)) in set_a.iter().zip(&set_b) {
        if wa != wb {
            println!("DISAGREE  result order differs: {wa} vs {wb}");
            ok = false;
            continue;
        }
        for r in [ra, rb] {
            if r.get("correct") != Some(&Value::Bool(true)) {
                println!("DISAGREE  {wa}: a run was not correct");
                ok = false;
            }
        }
        let value = |r: &Value, name: &str| {
            r.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
        };
        let names: Vec<String> = match ra.get("metrics") {
            Some(Value::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        };
        for name in names {
            let (Some(va), Some(vb)) = (value(ra, &name), value(rb, &name)) else {
                println!("DISAGREE  {wa}: {name} missing from one set");
                ok = false;
                continue;
            };
            match bounds.end_to_end.iter().find(|(n, _, _)| *n == name) {
                Some((_, better, bound)) => {
                    let worse = if better == "lower" {
                        vb / va - 1.0
                    } else {
                        va / vb - 1.0
                    };
                    let verdict = if worse.abs() > *bound {
                        "DISAGREE"
                    } else {
                        "agree   "
                    };
                    println!(
                        "{verdict}  {wa:<14} {name:<20} {va:>14.6} -> {vb:>14.6}  {:+.2}% (bound {:.0}%)",
                        worse * 100.0,
                        bound * 100.0
                    );
                    ok &= worse.abs() <= *bound;
                }
                // Per-layer counts: simulated work must repeat exactly.
                None if va != vb
                    && ["engine.cycles", "engine.flit_moves", "sim.paper_sat_err"]
                        .contains(&name.as_str()) =>
                {
                    println!("DISAGREE  {wa}: {name} {va} vs {vb} (must be identical)");
                    ok = false;
                }
                None => {}
            }
        }
    }
    ok
}

fn main() {
    let args = parse_args();
    let root = std::env::current_dir().expect("current directory");
    let bounds = declared(&root);
    if let Some((a, b)) = &args.agree {
        std::process::exit(if agree(a, b, &bounds) { 0 } else { 1 });
    }
    let netperf = args.netperf.clone().unwrap_or_else(|| usage());
    let netperf = netperf
        .canonicalize()
        .unwrap_or_else(|e| fail(&format!("{}: {e}", netperf.display())));
    if args.trace {
        // The replay runs sweeps and sharded steps in this process;
        // pin the library's pools before any thread exists.
        std::env::set_var("NETPERF_THREADS", "1");
    }
    println!("host: {}", host::describe(&root));

    let mut all_correct = true;
    for workload in &args.workloads {
        let scratch = root.join(format!(
            "benchmark/out/run-{}-{workload}",
            std::process::id()
        ));
        std::fs::create_dir_all(&scratch)
            .unwrap_or_else(|e| fail(&format!("{}: {e}", scratch.display())));
        let ctx = e2e::Ctx {
            netperf: netperf.clone(),
            root: root.clone(),
            scratch: scratch.clone(),
            workload: workload.clone(),
            seed: args.seed,
            seconds: args.seconds.unwrap_or(bounds.run_seconds),
            threads: spec::threads(workload),
        };
        let correct = if args.trace {
            run_traced(&ctx)
        } else {
            run_end_to_end(&ctx, &bounds)
        };
        if correct {
            // A failed run keeps its artifacts for inspection.
            std::fs::remove_dir_all(&scratch).ok();
        }
        all_correct &= correct;
    }
    std::process::exit(if all_correct { 0 } else { 1 });
}
