//! The end-to-end run: every operation of a workload goes through the
//! real `netperf` binary as a child process, one at a time (one client,
//! closed loop), untraced. One zero-work twin warms the page cache, then
//! timed passes of the full command list, each followed by its timed
//! zero-work twin, run until `--seconds` of measurement are used; every
//! metric is the median over passes, and every output is checked.

use crate::checks::{
    check_against_committed_figure, check_manifest, check_result_csv, check_snapshot_info,
    manifest_sibling,
};
use crate::child::{spawn, Usage};
use crate::json::{self, Value};
use crate::spec::{
    self, request_line, scenario_for, serve_requests, simulated_work, zero_work_twin, Len, Op,
    Request, PAPER_SATURATION,
};
use crate::stats::{median, percentile};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Where and how one invocation runs.
pub struct Ctx {
    /// The `netperf` binary under test (absolute path).
    pub netperf: PathBuf,
    /// Checkout root (holds `BENCHMARK.json`, `results/`).
    pub root: PathBuf,
    /// Fresh directory for this invocation's pass directories, removed
    /// when the run ends cleanly.
    pub scratch: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// `NETPERF_THREADS` for the children.
    pub threads: usize,
}

impl Ctx {
    pub fn command(&self, dir: &Path) -> Command {
        let mut c = Command::new(&self.netperf);
        c.current_dir(dir)
            .env("NETPERF_THREADS", self.threads.to_string())
            .stdin(Stdio::null());
        c
    }
}

/// The operations of one pass.
pub enum Plan {
    Cli(Vec<Op>),
    Serve(Vec<Request>),
}

impl Plan {
    pub fn of(workload: &str, seed: u64) -> Plan {
        if workload == "serve-mix" {
            Plan::Serve(serve_requests(seed))
        } else {
            Plan::Cli(spec::ops(workload))
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Plan::Cli(ops) => ops.len(),
            Plan::Serve(reqs) => reqs.len(),
        }
    }

    /// `(simulated cycles, simulated node-cycles)` one pass delivers,
    /// counting every row at its scenario's full run length whether it
    /// was simulated, resumed or served from the cache.
    pub fn work(&self, seed: u64) -> (u64, u64) {
        match self {
            Plan::Cli(ops) => simulated_work(
                ops.iter()
                    .filter_map(|op| Some((op.scenario(seed)?, op.loads().len()))),
            ),
            Plan::Serve(reqs) => simulated_work(
                reqs.iter()
                    .map(|r| (scenario_for(r.scenario, Len::Default, seed), 1)),
            ),
        }
    }
}

/// What one pass cost, and what went wrong in it.
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Latency of every operation, ms, in issue order.
    pub op_ms: Vec<f64>,
    pub failures: Vec<String>,
}

fn first_error_line(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .find(|l| l.starts_with("error:"))
        .or_else(|| text.lines().last())
        .unwrap_or("no stderr output")
        .to_string()
}

fn note_exit(failures: &mut Vec<String>, what: &str, usage: &Usage, stderr: &Path) {
    if usage.exit_code != Some(0) {
        failures.push(format!(
            "{what}: exit {:?}: {}",
            usage.exit_code,
            first_error_line(stderr)
        ));
    }
}

/// Make `dir` ready for a pass: create it, or — when an earlier pass
/// used it — empty every file in place. Passes of one run share one
/// directory and overwrite their predecessor's files: on ext4 the cost
/// of creating a file in a fresh directory wanders by a factor of four
/// with the allocator's state, while rewriting an existing file costs
/// the same every time. Only the first pass pays for creation, and the
/// median over passes does not see it. Emptying the files keeps a stale
/// artifact from passing for a fresh one.
fn prepare_dir(dir: &Path) {
    std::fs::create_dir_all(dir).expect("create pass directory");
    for entry in std::fs::read_dir(dir)
        .expect("list pass directory")
        .flatten()
    {
        if entry.file_type().is_ok_and(|t| t.is_file()) {
            File::create(entry.path()).expect("empty a pass file");
        }
    }
}

/// Run a command list once in `dir`, one child after the other.
pub fn run_cli_pass(ctx: &Ctx, ops: &[Op], dir: &Path, twin: bool) -> Pass {
    prepare_dir(dir);
    let mut pass = Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        op_ms: Vec::with_capacity(ops.len()),
        failures: Vec::new(),
    };
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let mut argv = op.argv(ctx.seed);
        if twin {
            argv = zero_work_twin(&argv);
        }
        let stderr = dir.join(format!("op{i}.err"));
        let mut cmd = ctx.command(dir);
        cmd.args(&argv)
            .stdout(File::create(dir.join(format!("op{i}.out"))).expect("create stdout file"))
            .stderr(File::create(&stderr).expect("create stderr file"));
        let usage = spawn(&mut cmd)
            .and_then(|r| r.wait())
            .unwrap_or_else(|e| panic!("spawn {}: {e}", ctx.netperf.display()));
        pass.cpu_s += usage.cpu_s;
        pass.peak_rss_mb = pass.peak_rss_mb.max(usage.peak_rss_mb);
        pass.op_ms.push(usage.wall_s * 1e3);
        note_exit(
            &mut pass.failures,
            &format!("netperf {}", argv.join(" ")),
            &usage,
            &stderr,
        );
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// Run a request list once through one `netperf serve --cache <fresh
/// dir>`: each request line is written only after the previous response
/// line was read, and its latency is write-to-read.
pub fn run_serve_pass(ctx: &Ctx, requests: &[Request], dir: &Path, twin: bool) -> Pass {
    prepare_dir(dir);
    // Every pass gets a cache directory no earlier pass has used, so
    // that first occurrences are misses.
    let cache = (0..)
        .map(|k| format!("cache{k}"))
        .find(|name| !dir.join(name).exists())
        .expect("an unused cache directory name");
    let stderr = dir.join("serve.err");
    let mut cmd = ctx.command(dir);
    cmd.args(["serve", "--cache", &cache])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(File::create(&stderr).expect("create stderr file"));
    let mut running =
        spawn(&mut cmd).unwrap_or_else(|e| panic!("spawn {}: {e}", ctx.netperf.display()));
    let mut to_server = running.child.stdin.take().expect("piped stdin");
    let mut from_server = BufReader::new(running.child.stdout.take().expect("piped stdout"));

    let mut op_ms = Vec::with_capacity(requests.len());
    let mut failures = Vec::new();
    let mut response = String::new();
    for (i, req) in requests.iter().enumerate() {
        let mut argv = req.argv(i, ctx.seed);
        if twin {
            argv = zero_work_twin(&argv);
        }
        let line = request_line(&argv);
        let sent = Instant::now();
        response.clear();
        let io = writeln!(to_server, "{line}")
            .and_then(|()| to_server.flush())
            .and_then(|()| from_server.read_line(&mut response));
        op_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        let status = json::parse(response.trim()).ok();
        let status = status
            .as_ref()
            .and_then(|v| v.get("status"))
            .and_then(Value::as_str);
        if io.is_err() || status != Some("ok") {
            failures.push(format!(
                "request {i} ({line}): response {:?}",
                response.trim()
            ));
        }
    }
    drop(to_server);
    let usage = running.wait().expect("wait for netperf serve");
    note_exit(&mut failures, "netperf serve", &usage, &stderr);
    Pass {
        wall_s: usage.wall_s,
        cpu_s: usage.cpu_s,
        peak_rss_mb: usage.peak_rss_mb,
        op_ms,
        failures,
    }
}

pub fn run_pass(ctx: &Ctx, plan: &Plan, dir: &Path, twin: bool) -> Pass {
    match plan {
        Plan::Cli(ops) => run_cli_pass(ctx, ops, dir, twin),
        Plan::Serve(reqs) => run_serve_pass(ctx, reqs, dir, twin),
    }
}

fn read(dir: &Path, name: &str) -> Result<Vec<u8>, String> {
    std::fs::read(dir.join(name)).map_err(|e| format!("{name}: {e}"))
}

fn text(dir: &Path, name: &str) -> Result<String, String> {
    String::from_utf8(read(dir, name)?).map_err(|_| format!("{name}: not UTF-8"))
}

/// Output checks of the timed passes. Holds the bytes later passes (and
/// sibling files) must reproduce.
pub struct Checker {
    /// CSV bytes of the first timed pass, per operation: a fixed seed
    /// must give the same bytes every pass.
    first_pass: Vec<Option<Vec<u8>>>,
    /// `scale-shards`: the CSV of an untimed serial run of the same
    /// scenario, which the sharded run must equal byte for byte.
    serial_csv: Option<Vec<u8>>,
    /// Mean relative distance of `paper-sat`'s accepted fractions from
    /// the paper's saturation points (simulated; exact under a seed).
    pub paper_sat_err: Option<f64>,
}

impl Checker {
    /// Set up the references; untimed extra runs happen here.
    pub fn new(ctx: &Ctx, plan: &Plan, failures: &mut Vec<String>) -> Checker {
        let mut checker = Checker {
            first_pass: vec![None; plan.len()],
            serial_csv: None,
            paper_sat_err: None,
        };
        if ctx.workload == "scale-shards" {
            let dir = ctx.scratch.join("serial");
            let pass = run_cli_pass(ctx, &spec::ops("scale-serial"), &dir, false);
            failures.extend(pass.failures);
            match read(&dir, "scale.csv") {
                Ok(bytes) => checker.serial_csv = Some(bytes),
                Err(e) => failures.push(format!("serial reference run: {e}")),
            }
        }
        if ctx.workload == "paper-lowload" && ctx.seed == 0 {
            // The timed passes use the short protocol; this one
            // full-length sweep ties the binary under test to the
            // committed paper figure.
            let dir = ctx.scratch.join("figure");
            let op = Op::Sweep {
                scenario: "cube-duato",
                grid: [0.05, 0.2, 0.05],
                len: Len::Default,
                csv: "fig.csv".to_string(),
            };
            let pass = run_cli_pass(ctx, &[op], &dir, false);
            failures.extend(pass.failures);
            if let Err(e) = text(&dir, "fig.csv")
                .and_then(|csv| check_against_committed_figure(&csv, &ctx.root))
            {
                failures.push(format!("committed-figure check: {e}"));
            }
        }
        checker
    }

    /// Check everything one timed pass left in `dir`.
    pub fn check(&mut self, ctx: &Ctx, plan: &Plan, dir: &Path, failures: &mut Vec<String>) {
        let before = failures.len();
        match plan {
            Plan::Cli(ops) => self.check_cli(ctx, ops, dir, failures),
            Plan::Serve(reqs) => check_serve(reqs, dir, failures),
        }
        for f in &mut failures[before..] {
            *f = format!("{}: {f}", ctx.workload);
        }
    }

    fn check_cli(&mut self, ctx: &Ctx, ops: &[Op], dir: &Path, failures: &mut Vec<String>) {
        for (i, op) in ops.iter().enumerate() {
            if let Op::SnapshotInfo { .. } = op {
                if let Err(e) =
                    text(dir, &format!("op{i}.out")).and_then(|out| check_snapshot_info(&out))
                {
                    failures.push(e);
                }
                continue;
            }
            let csv = op.csv().expect("simulating operations write a CSV");
            let scenario = op.scenario(ctx.seed).expect("simulating operation");
            let loads = op.loads();
            let checked = text(dir, csv).and_then(|t| {
                check_result_csv(
                    &t,
                    &loads,
                    scenario.faults().is_some(),
                    ctx.workload == "paper-lowload",
                )?;
                check_manifest(&text(dir, &manifest_sibling(csv))?, loads.len(), None)?;
                Ok(t.into_bytes())
            });
            match checked {
                Err(e) => failures.push(format!("{csv}: {e}")),
                Ok(bytes) => match &self.first_pass[i] {
                    None => self.first_pass[i] = Some(bytes),
                    Some(first) if *first != bytes => {
                        failures.push(format!("{csv}: differs from the first pass's bytes"))
                    }
                    Some(_) => {}
                },
            }
        }
        match ctx.workload.as_str() {
            "artifacts" => {
                // Straight run ≡ resumed run ≡ traced run, byte for byte.
                let a = read(dir, "a.csv");
                for other in ["b.csv", "c.csv"] {
                    if a.is_err() || read(dir, other) != a {
                        failures.push(format!("{other} is not byte-identical to a.csv"));
                    }
                }
                for artifact in [
                    "t.trace.jsonl",
                    "t.trace.json",
                    "t.breakdown.csv",
                    "t.util.csv",
                ] {
                    if !dir.join(artifact).metadata().is_ok_and(|m| m.len() > 0) {
                        failures.push(format!("{artifact} is missing or empty"));
                    }
                }
            }
            "scale-shards" if read(dir, "scale.csv").ok() != self.serial_csv => {
                failures.push("sharded CSV is not byte-identical to the serial run's".to_string())
            }
            "paper-sat" => match paper_sat_err(dir) {
                Ok(err) => {
                    self.paper_sat_err = Some(err);
                    // 0.075 when this was written; the paper's own
                    // figures carry about that much reading error.
                    if err > 0.15 {
                        failures.push(format!(
                            "saturation throughput drifted {err:.3} from the paper's values"
                        ));
                    }
                }
                Err(e) => failures.push(e),
            },
            _ => {}
        }
    }
}

/// Mean over the `paper-sat` configurations of |accepted fraction at
/// offered 1.0 − the paper's saturation| ÷ the paper's value.
fn paper_sat_err(dir: &Path) -> Result<f64, String> {
    let mut sum = 0.0;
    for (scenario, paper) in PAPER_SATURATION {
        let csv = crate::checks::parse_csv(&text(dir, &format!("{scenario}.csv"))?)?;
        let col = csv
            .column("accepted_fraction")
            .ok_or("no accepted_fraction column")?;
        let accepted: f64 = csv
            .rows
            .first()
            .and_then(|r| r[col].parse().ok())
            .ok_or_else(|| format!("{scenario}.csv: no accepted fraction"))?;
        sum += (accepted - paper).abs() / paper;
    }
    Ok(sum / PAPER_SATURATION.len() as f64)
}

/// Every first occurrence is a well-formed miss; every repeat is a hit
/// whose CSV equals its miss's byte for byte; the manifests' cache
/// blocks say the same.
fn check_serve(reqs: &[Request], dir: &Path, failures: &mut Vec<String>) {
    let csvs: Vec<Result<Vec<u8>, String>> = (0..reqs.len())
        .map(|i| read(dir, &Request::csv(i)))
        .collect();
    for (i, req) in reqs.iter().enumerate() {
        let name = Request::csv(i);
        let hit = req.first != i;
        let checked = csvs[i].clone().and_then(|bytes| {
            if hit {
                if Ok(&bytes) != csvs[req.first].as_ref() {
                    return Err(format!(
                        "hit differs from its miss {}",
                        Request::csv(req.first)
                    ));
                }
            } else {
                let t = String::from_utf8(bytes).map_err(|_| "not UTF-8".to_string())?;
                check_result_csv(&t, &[req.load], false, false)?;
            }
            let cache = if hit { (1, 0) } else { (0, 1) };
            check_manifest(&text(dir, &manifest_sibling(&name))?, 1, Some(cache))
        });
        if let Err(e) = checked {
            failures.push(format!("{name}: {e}"));
        }
    }
}

/// One end-to-end metric: the median over passes and the passes behind
/// it.
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub median: f64,
    pub passes: Vec<f64>,
}

pub struct Report {
    pub metrics: Vec<Measured>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `paper-sat` only; simulated, not a speed.
    pub paper_sat_err: Option<f64>,
}

/// The whole end-to-end run of one workload.
pub fn run(ctx: &Ctx) -> Report {
    let plan = Plan::of(&ctx.workload, ctx.seed);
    let mut failures = Vec::new();
    let mut attempted = 0u64;

    // One untimed zero-work twin first: it warms the page cache and
    // fails fast on a broken command line.
    let twin = |attempted: &mut u64, failures: &mut Vec<String>| -> f64 {
        let pass = run_pass(ctx, &plan, &ctx.scratch.join("twin"), true);
        *attempted += plan.len() as u64;
        failures.extend(
            pass.failures
                .into_iter()
                .map(|f| format!("zero-work twin: {f}")),
        );
        pass.wall_s
    };
    twin(&mut attempted, &mut failures);

    let mut checker = Checker::new(ctx, &plan, &mut failures);

    // Timed passes, each followed by its zero-work twin, as many pairs
    // as fit in `--seconds` of measured wall time and never fewer than
    // three. Pairing lets a pass and the set-up cost subtracted from it
    // see the same state of the box. Nothing is deleted until the run
    // ends.
    let (cycles, node_cycles) = plan.work(ctx.seed);
    let mut passes: Vec<Pass> = Vec::new();
    let mut setup: Vec<f64> = Vec::new();
    let mut measured = 0.0;
    while passes.len() < 3 || measured + measured / passes.len() as f64 <= ctx.seconds {
        let dir = ctx.scratch.join("pass");
        let mut pass = run_pass(ctx, &plan, &dir, false);
        attempted += plan.len() as u64;
        failures.append(&mut pass.failures);
        checker.check(ctx, &plan, &dir, &mut failures);
        setup.push(twin(&mut attempted, &mut failures));
        measured += pass.wall_s + setup[passes.len()];
        passes.push(pass);
    }
    let stepping_s: Vec<f64> = passes
        .iter()
        .zip(&setup)
        .map(|(p, s)| p.wall_s - s)
        .collect();

    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let columns: [Vec<f64>; 8] = [
        per_pass(&|p| p.wall_s),
        per_pass(&|p| p.cpu_s),
        setup,
        per_pass(&|p| cycles as f64 / p.wall_s),
        stepping_s
            .iter()
            .map(|s| s * 1e9 / node_cycles as f64)
            .collect(),
        per_pass(&|p| p.peak_rss_mb),
        per_pass(&|p| percentile(&p.op_ms, 50.0)),
        per_pass(&|p| percentile(&p.op_ms, 95.0)),
    ];
    let metrics = spec::END_TO_END
        .iter()
        .zip(columns)
        .map(|(&(name, unit), passes)| Measured {
            name,
            unit,
            median: median(&passes),
            passes,
        })
        .collect();
    Report {
        metrics,
        attempted,
        failures,
        paper_sat_err: checker.paper_sat_err,
    }
}
