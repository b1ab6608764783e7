//! The request path: how a request becomes a validated scenario, loads
//! and sinks, and how each load point is executed, cached and rendered.
//!
//! A request is an [`Op`], an optional registry name and a list of
//! `(flag, value)` pairs. `netperf run|sweep|design` spells the pairs as
//! argv ([`pairs_from_argv`]), `netperf serve` as one flat JSON object
//! per line; both feed [`RunRequest::from_pairs`], which reads the
//! request-level flags (loads, sinks, cache, checkpoints, shards,
//! stepper) and hands the scenario flags — after a named registry
//! entry's own pairs — to [`Scenario::from_pairs`], the one scenario
//! grammar. [`execute`] then resolves
//! every load point — through the result cache when one is configured
//! (lookup → simulate the misses on the sweep pool → store), otherwise
//! by simulating — writes the artifact sinks and returns a
//! [`RunReport`]. Nothing here prints or exits: errors are
//! [`RequestError`] values whose `Display` is the CLI's one-line
//! `error: …` text, and the report carries the lines the front-end
//! prints (or, in `serve`, drops).
//!
//! ```
//! use netsim::request::{execute, pairs_from_argv, Op, RunRequest};
//!
//! let argv = ["cube-duato-tiny", "--quick", "--load", "0.2"].map(String::from);
//! let (name, pairs) = pairs_from_argv(&argv).unwrap();
//! let req = RunRequest::from_pairs(Op::Run, name.as_deref(), &pairs).unwrap();
//! let report = execute(&req).unwrap();
//! assert_eq!(report.rows.len(), 1);
//! assert!(report.stdout[1].starts_with("load  0.20: accepted"));
//!
//! // Hostile input is a value, not a panic.
//! let bad = [("load".to_string(), "nan".to_string())];
//! assert!(RunRequest::from_pairs(Op::Run, Some("cube-duato-tiny"), &bad).is_err());
//! ```

mod design;

use crate::scenario::{
    default_load_grid, entry, sweep_pool, Flags, Scenario, ScenarioError, SCENARIO_FLAGS,
};
use crate::sim::{ResumeError, RunControl, RunSnapshot, SimError, SimOutcome, Stepper};
use crate::SnapshotError;
use costmodel::DesignBudget;
use netstats::cache::{CacheEntry, CacheError, KeyDigest, ResultCache};
use netstats::export::format_num;
use netstats::{Cell, Manifest, ManifestValue, Table};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::time::Instant;
use telemetry::{trace, FlightRecorder, TelemetryConfig};

/// Why a request was refused or failed. `Display` is the one-line
/// message the CLI prints after `error: ` and `serve` puts in its
/// `"error"` field.
#[derive(Debug)]
pub enum RequestError {
    /// The request is malformed or asks for an impossible combination.
    Invalid(String),
    /// `--help` where a request was expected (the CLI prints usage).
    Help,
    /// The scenario axes do not validate.
    Scenario(ScenarioError),
    /// The run failed: deadlock watchdog, or an unusable checkpoint.
    Run(ResumeError),
    /// The result cache holds an entry that cannot be trusted.
    Cache(CacheError),
    /// An artifact could not be read or written.
    Io {
        /// What was being done (`write`, `read checkpoint`, …).
        action: &'static str,
        /// The path it was being done to.
        path: String,
        /// The operating system's reason.
        source: std::io::Error,
    },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Invalid(m) => f.write_str(m),
            RequestError::Help => f.write_str("--help is not a request (see `netperf --help`)"),
            RequestError::Scenario(e) => write!(f, "{e}"),
            RequestError::Run(e) => write!(f, "{e}"),
            RequestError::Cache(e) => write!(f, "{e}"),
            RequestError::Io {
                action,
                path,
                source,
            } => write!(f, "{action} {path}: {source}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<ScenarioError> for RequestError {
    fn from(e: ScenarioError) -> Self {
        RequestError::Scenario(e)
    }
}
impl From<ResumeError> for RequestError {
    fn from(e: ResumeError) -> Self {
        RequestError::Run(e)
    }
}
impl From<SimError> for RequestError {
    fn from(e: SimError) -> Self {
        RequestError::Run(e.into())
    }
}
impl From<SnapshotError> for RequestError {
    fn from(e: SnapshotError) -> Self {
        RequestError::Run(e.into())
    }
}
impl From<CacheError> for RequestError {
    fn from(e: CacheError) -> Self {
        RequestError::Cache(e)
    }
}

fn invalid<S: Into<String>>(msg: S) -> RequestError {
    RequestError::Invalid(msg.into())
}

/// Wrap an I/O failure with what was being done to which path.
pub fn io_error<'p>(
    action: &'static str,
    path: &'p str,
) -> impl FnOnce(std::io::Error) -> RequestError + 'p {
    move |source| RequestError::Io {
        action,
        path: path.to_string(),
        source,
    }
}

/// The three request kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// One offered load of one scenario.
    Run,
    /// A load grid of one scenario.
    Sweep,
    /// Rank every registered family shape under a pin budget.
    Design,
}

impl Op {
    /// `run` / `sweep` / `design`.
    pub fn parse(s: &str) -> Option<Op> {
        match s {
            "run" => Some(Op::Run),
            "sweep" => Some(Op::Sweep),
            "design" => Some(Op::Design),
            _ => None,
        }
    }
}

/// One scenario over a list of offered loads, with the execution
/// options and the artifact sinks.
#[derive(Clone, Debug, PartialEq)]
struct Points {
    /// The validated scenario (telemetry set when traced).
    scenario: Scenario,
    /// Offered loads, fractions of capacity.
    loads: Vec<f64>,
    /// Shards per run (`--shards`): an execution detail, bit-identical
    /// for every value, passed to each run through its [`RunControl`].
    shards: usize,
    /// The engine's scan (`--stepper`), likewise an execution detail.
    stepper: Stepper,
    /// Write the result rows here, plus a manifest sibling (`--csv`).
    csv: Option<String>,
    /// Artifact stem for telemetry output (`--trace` / `--probe`).
    trace: Option<String>,
    /// Checkpoint cadence in cycles (`--checkpoint-every`, `run` only).
    checkpoint_every: Option<u32>,
    /// Where checkpoints are written (`--snapshot`).
    snapshot: Option<String>,
    /// Checkpoint to resume from (`--resume`).
    resume: Option<String>,
}

/// What a request evaluates.
#[derive(Clone, Debug, PartialEq)]
enum Target {
    /// `run` / `sweep`.
    Points(Box<Points>),
    /// `design`: the design-space screen.
    Design {
        /// Node count and per-router pin budget.
        budget: DesignBudget,
        /// Stem of the `.csv` / `.json` / `.manifest.json` report files.
        out_stem: String,
    },
}

/// One validated request: what to evaluate, how, and where results go.
/// Built only by [`RunRequest::from_pairs`], so [`execute`] never sees
/// an unchecked load, run length or flag combination.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRequest {
    /// Scenario, loads and sinks — or the design budget.
    target: Target,
    /// `--quick` was given (short run; recorded in manifests).
    quick: bool,
    /// Result-cache root (`--cache`).
    cache: Option<String>,
}

/// What [`execute`] did, for the front-end to print or drop.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Lines for stdout, in order: banner, per-load summaries, cache
    /// hit/miss summary.
    pub stdout: Vec<String>,
    /// Diagnostics for stderr, in order: cache-miss reasons,
    /// resume/checkpoint notices, one `wrote <path>` per artifact.
    pub notes: Vec<String>,
    /// The result rows (`run`/`sweep`: one per load; `design`: one per
    /// simulated candidate).
    pub rows: Vec<PointRow>,
    /// `(hits, misses)` when a cache was configured.
    pub cache: Option<(u64, u64)>,
    /// Every file written, in order.
    pub written: Vec<String>,
}

impl RunReport {
    fn wrote(&mut self, path: String) {
        self.notes.push(format!("wrote {path}"));
        self.written.push(path);
    }
}

/// A request's `(flag, value)` pairs, flags spelled without the `--`.
pub type Pairs = Vec<(String, String)>;

/// Split `netperf run|sweep|design` arguments into the optional
/// registry name and `(flag, value)` pairs: `--load 0.3` becomes
/// `("load", "0.3")`, the bare flags `--quick` and `--help`/`-h` carry
/// the value `"true"` (the spelling a JSON request uses for them).
pub fn pairs_from_argv(args: &[String]) -> Result<(Option<String>, Pairs), RequestError> {
    let mut name = None;
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => pairs.push(("quick".to_string(), "true".to_string())),
            "--help" | "-h" => pairs.push(("help".to_string(), "true".to_string())),
            flag if flag.starts_with("--") => {
                let value = it
                    .next()
                    .ok_or_else(|| invalid(format!("missing value for {flag}")))?;
                pairs.push((flag[2..].to_string(), value.clone()));
            }
            positional if name.is_none() => name = Some(positional.to_string()),
            other => return Err(invalid(format!("unexpected argument {other}"))),
        }
    }
    Ok((name, pairs))
}

/// Most load points one request may ask for: bounds the work (and the
/// allocation) a hostile `--grid` can demand.
const MAX_GRID_POINTS: usize = 10_000;

/// Expand `a:b:step`. The points are accumulated (`x += step`), not
/// indexed: the float bits feed the per-point seeds and are part of
/// the committed artifacts.
fn parse_grid(spec: &str) -> Result<Vec<f64>, RequestError> {
    let bad = || invalid("bad --grid (want a:b:step)");
    let parts: Option<Vec<f64>> = spec.split(':').map(|x| x.parse().ok()).collect();
    let [a, b, step] = parts.ok_or_else(bad)?[..] else {
        return Err(bad());
    };
    if !(a.is_finite() && b.is_finite() && step.is_finite() && step > 0.0 && b >= a) {
        return Err(bad());
    }
    // Count first, arithmetically, so an absurd grid never allocates;
    // the length guard in the loop covers a step too small to move `x`.
    if (b - a) / step >= MAX_GRID_POINTS as f64 {
        return Err(invalid(format!(
            "bad --grid ({spec} asks for more than {MAX_GRID_POINTS} load points)"
        )));
    }
    let mut g = Vec::new();
    let mut x = a;
    while x <= b + 1e-9 && g.len() <= MAX_GRID_POINTS {
        g.push(x);
        x += step;
    }
    Ok(g)
}

impl RunRequest {
    /// Validate a request. Flags are spelled without the leading `--`;
    /// bare flags carry the value `"true"`. The request-level flags are
    /// read here; the [`SCENARIO_FLAGS`] go to [`Scenario::from_pairs`]
    /// — after the named registry entry's own pairs, so the last value
    /// of a flag wins.
    pub fn from_pairs(
        op: Op,
        name: Option<&str>,
        pairs: &[(String, String)],
    ) -> Result<RunRequest, RequestError> {
        for (flag, _) in pairs {
            let known = match flag.as_str() {
                "help" => return Err(RequestError::Help),
                "quick" | "cache" => true,
                "nodes" | "pin-budget" | "out" => op == Op::Design,
                "load" | "grid" | "sweep" | "csv" | "trace" | "probe" | "probe-stride"
                | "shards" | "stepper" | "checkpoint-every" | "snapshot" | "resume" => {
                    op != Op::Design
                }
                axis => op != Op::Design && SCENARIO_FLAGS.contains(&axis),
            };
            if !known {
                return Err(invalid(format!("unknown flag --{flag}")));
            }
        }
        let f = Flags(pairs);
        let quick = f.switch("quick")?;
        let cache = f.get("cache").map(str::to_string);

        if op == Op::Design {
            if let Some(extra) = name {
                return Err(invalid(format!("unexpected argument {extra}")));
            }
            let budget = DesignBudget {
                nodes: f.at_least("nodes", 2)?.unwrap_or(256),
                pin_budget: f.at_least("pin-budget", 1)?.unwrap_or(160),
            };
            let out_stem = f.get("out").unwrap_or("results/design_report").to_string();
            return Ok(RunRequest {
                target: Target::Design { budget, out_stem },
                quick,
                cache,
            });
        }

        let axes: Vec<(&str, &str)> = pairs
            .iter()
            .filter(|(flag, _)| SCENARIO_FLAGS.contains(&flag.as_str()))
            .map(|(flag, v)| (flag.as_str(), v.as_str()))
            .collect();
        let mut scenario = match name {
            Some(name) => entry(name)
                .ok_or_else(|| invalid(format!("unknown scenario {name} (see `netperf list`)")))?
                .with_overrides(&axes)?,
            None => Scenario::from_pairs(&axes)?,
        };

        let trace = f.last_of(&["trace", "probe"]).map(|(_, v)| v.to_string());
        let probe_stride = f.at_least("probe-stride", 1)?;
        if probe_stride.is_some() && trace.is_none() {
            return Err(invalid("--probe-stride requires --trace"));
        }
        if trace.is_some() {
            scenario = scenario.with_telemetry(TelemetryConfig {
                stride: probe_stride.unwrap_or(100),
                record_events: true,
            });
        }
        let shards = f.at_least("shards", 1)?.unwrap_or(1);
        let stepper = match f.get("stepper") {
            Some(v) => v.parse().map_err(invalid::<String>)?,
            None => Stepper::Default,
        };

        let sweep = op == Op::Sweep;
        let checkpoint_every = f.at_least("checkpoint-every", 1)?;
        let (snapshot, resume) = (f.get("snapshot"), f.get("resume"));
        if sweep && (checkpoint_every.is_some() || snapshot.is_some() || resume.is_some()) {
            return Err(invalid(
                "--checkpoint-every/--snapshot/--resume apply to `run`, not `sweep`",
            ));
        }
        if checkpoint_every.is_some() && snapshot.is_none() {
            return Err(invalid(
                "--checkpoint-every needs --snapshot <path> to write checkpoints to",
            ));
        }
        if snapshot.is_some() && checkpoint_every.is_none() {
            return Err(invalid(
                "--snapshot needs --checkpoint-every <n> to decide when to checkpoint",
            ));
        }

        let grid = f.last_of(&["grid", "sweep"]);
        let loads = match (sweep, grid) {
            (false, Some((flag, _))) => {
                return Err(invalid(format!(
                    "--{flag} applies to `sweep`; `run` takes one --load"
                )))
            }
            (false, None) => vec![f.num("load")?.unwrap_or(0.5)],
            (true, _) if f.any_of(&["load"]) => {
                return Err(invalid(
                    "--load applies to `run`; `sweep` takes --grid a:b:step",
                ))
            }
            (true, Some((_, grid))) => parse_grid(grid)?,
            (true, None) => default_load_grid(),
        };
        for &l in &loads {
            scenario.check_load(l)?;
        }
        let req = RunRequest {
            target: Target::Points(Box::new(Points {
                scenario,
                loads,
                shards,
                stepper,
                csv: f.get("csv").map(str::to_string),
                trace,
                checkpoint_every,
                snapshot: snapshot.map(str::to_string),
                resume: resume.map(str::to_string),
            })),
            quick,
            cache,
        };
        match (&req.cache, req.uncacheable()) {
            (Some(_), Some(why)) => Err(invalid(why)),
            _ => Ok(req),
        }
    }

    /// Why this request cannot use a result cache, if it cannot: trace
    /// artifacts are not cached, and a checkpointed or resumed run is
    /// not a pure function of its key.
    fn uncacheable(&self) -> Option<&'static str> {
        match &self.target {
            Target::Points(p) if p.trace.is_some() => {
                Some("--cache does not apply to traced runs (trace artifacts are not cached)")
            }
            Target::Points(p) if p.checkpoint_every.is_some() || p.resume.is_some() => {
                Some("--cache cannot be combined with --checkpoint-every/--resume")
            }
            _ => None,
        }
    }

    /// The result-cache root this request resolves through, if any.
    pub fn cache(&self) -> Option<&str> {
        self.cache.as_deref()
    }

    /// Inherit a server-wide result cache: applies unless the request
    /// names its own or asks for something a cache excludes.
    pub fn with_default_cache(mut self, dir: Option<&str>) -> Self {
        if self.cache.is_none() && self.uncacheable().is_none() {
            self.cache = dir.map(str::to_string);
        }
        self
    }
}

/// One result row in its canonical rendered form — the unit the result
/// cache stores and replays. Cells are pre-rendered with [`format_num`]
/// (the same renderer `Cell::Num` goes through), so a warm replay is
/// byte-identical to a cold render.
#[derive(Clone, Debug, PartialEq)]
pub struct PointRow {
    /// The CSV cells, in the `--csv` column order.
    pub cells: Vec<String>,
    /// created, delivered, dropped, unroutable — the manifest counters.
    pub counters: [u64; 4],
    /// The per-load stdout summary line, replayed verbatim on a hit.
    pub line: String,
    /// The accepted fraction to full precision (cell 2 rounds it to six
    /// decimals), kept only for requests that compute on it: `design`
    /// ranks by it, and stores it so a warm report equals a cold one.
    pub accepted: Option<f64>,
}

/// Render one outcome as its canonical row; `exact` keeps the
/// unrounded accepted fraction beside it.
fn point_row(load: f64, out: &SimOutcome, faulted: bool, exact: bool) -> PointRow {
    let p99 = out.latency_hist.quantile(0.99).unwrap_or(f64::NAN);
    let mut cells = vec![
        format_num(load),
        format_num(out.generated_fraction),
        format_num(out.accepted_fraction),
        format_num(out.mean_latency_cycles()),
        format_num(p99),
        format_num(out.delivered_packets as f64),
        format_num(out.backlog_packets as f64),
    ];
    if faulted {
        cells.push(format_num(out.dropped_packets as f64));
        cells.push(format_num(out.unroutable_packets as f64));
    }
    let degraded = if faulted {
        format!(
            " ({} dropped, {} unroutable)",
            out.dropped_packets, out.unroutable_packets
        )
    } else {
        String::new()
    };
    let line = format!(
        "load {:>5.2}: accepted {:>6.3} of capacity, latency {:>7.1} cycles (p99 {:>6.0}), {} packets{degraded}",
        load,
        out.accepted_fraction,
        out.mean_latency_cycles(),
        p99,
        out.delivered_packets
    );
    PointRow {
        cells,
        counters: [
            out.created_packets,
            out.delivered_packets,
            out.dropped_packets,
            out.unroutable_packets,
        ],
        line,
        accepted: exact.then_some(out.accepted_fraction),
    }
}

/// Cache key of one result row. Covers everything the row's bytes
/// depend on: the full simulation identity at this load (via
/// [`Scenario::state_ident`], which folds in every scenario axis, the
/// fault-plan digest and the run length) plus the column shape (faulted
/// runs carry two extra columns). `exact` rows (the ones `design` asks
/// for) also store the unrounded accepted fraction, so they live under
/// their own schema.
fn point_cache_key(s: &Scenario, load: f64, faulted: bool, exact: bool) -> u64 {
    let mut k = KeyDigest::new(if exact {
        "netperf-design-cache/2"
    } else {
        "netperf-point-cache/1"
    });
    k.push_u64("ident", s.state_ident(load))
        .push_u64("faulted_columns", faulted as u64);
    k.finish()
}

/// The cache artifacts of one row; an exact accepted fraction is stored
/// as its IEEE-754 bit pattern.
fn encode_point(row: &PointRow) -> Vec<(String, Vec<u8>)> {
    let [created, delivered, dropped, unroutable] = row.counters;
    let mut artifacts = vec![
        ("row.tsv".into(), (row.cells.join("\t") + "\n").into_bytes()),
        (
            "counters.txt".into(),
            format!("{created} {delivered} {dropped} {unroutable}\n").into_bytes(),
        ),
        ("summary.txt".into(), (row.line.clone() + "\n").into_bytes()),
    ];
    if let Some(a) = row.accepted {
        let bits = format!("{:016x}\n", a.to_bits());
        artifacts.push(("accepted.txt".into(), bits.into_bytes()));
    }
    artifacts
}

/// Decode one cache entry. Corruption is a hard error, never a silent
/// recompute.
fn decode_point(entry: &CacheEntry, faulted: bool) -> Result<PointRow, CacheError> {
    let text = |name: &str| -> Result<&str, CacheError> {
        let bytes = entry
            .artifact(name)
            .ok_or_else(|| CacheError::Corrupt(format!("missing artifact {name}")))?;
        std::str::from_utf8(bytes)
            .map_err(|_| CacheError::Corrupt(format!("artifact {name} is not UTF-8")))
    };
    let cells: Vec<String> = text("row.tsv")?
        .trim_end_matches('\n')
        .split('\t')
        .map(str::to_string)
        .collect();
    let want = if faulted { 9 } else { 7 };
    if cells.len() != want {
        return Err(CacheError::Corrupt(format!(
            "expected {want} result cells, found {}",
            cells.len()
        )));
    }
    let nums = text("counters.txt")?
        .split_whitespace()
        .map(|w| {
            w.parse::<u64>()
                .map_err(|_| CacheError::Corrupt(format!("bad counter {w}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let counters: [u64; 4] = nums.try_into().map_err(|v: Vec<u64>| {
        CacheError::Corrupt(format!("expected 4 counters, found {}", v.len()))
    })?;
    let accepted = match entry.artifact("accepted.txt") {
        None => None,
        Some(_) => Some(
            u64::from_str_radix(text("accepted.txt")?.trim(), 16)
                .map(f64::from_bits)
                .map_err(|_| CacheError::Corrupt("malformed accepted.txt".into()))?,
        ),
    };
    Ok(PointRow {
        cells,
        counters,
        line: text("summary.txt")?.trim_end_matches('\n').to_string(),
        accepted,
    })
}

/// Result columns; the fault columns appear only on faulted runs so
/// healthy CSV output keeps its historical shape.
fn results_table(faulted: bool) -> Table {
    let mut cols = vec![
        "offered_fraction",
        "generated_fraction",
        "accepted_fraction",
        "latency_cycles",
        "latency_p99_cycles",
        "delivered_packets",
        "backlog_packets",
    ];
    if faulted {
        cols.extend(["dropped_packets", "unroutable_packets"]);
    }
    Table::with_columns(cols)
}

/// `out.csv` → `out.manifest.json`.
fn manifest_sibling(csv_path: &str) -> String {
    let stem = csv_path.strip_suffix(".csv").unwrap_or(csv_path);
    format!("{stem}.manifest.json")
}

/// Execute one request: resolve every load point, write the sinks,
/// report what happened. The single entry point behind `netperf
/// run|sweep|design` and `netperf serve`.
pub fn execute(req: &RunRequest) -> Result<RunReport, RequestError> {
    let mut report = RunReport::default();
    match &req.target {
        Target::Design { budget, out_stem } => design::execute(req, budget, out_stem, &mut report)?,
        Target::Points(points) => execute_points(req, points, &mut report)?,
    }
    Ok(report)
}

fn execute_points(
    req: &RunRequest,
    points: &Points,
    report: &mut RunReport,
) -> Result<(), RequestError> {
    let (s, loads) = (&points.scenario, &points.loads);
    let norm = s.normalization();
    report.stdout.push(format!(
        "{} | {} | {} | {} flits/packet | capacity {:.3} flits/node/cycle | clock {:.2} ns",
        s.topology().describe(),
        s.routing().name(),
        s.pattern().name(),
        (s.packet_bytes() / norm.flit_bytes()).max(1),
        norm.capacity_flits_per_cycle(),
        norm.timing().clock_ns(),
    ));
    if let Some(plan) = s.faults() {
        report.stdout.push(format!(
            "faults: {} (digest 0x{:016x})",
            plan.spec_string(),
            plan.digest()
        ));
    }

    let start = Instant::now();
    let cache = req.cache.as_deref().map(ResultCache::open);
    let (rows, recorders) = resolve(points, cache.as_ref(), false, "", report)?;
    let wall = start.elapsed().as_secs_f64();

    // Traced runs carry one recorder per load and a stem to write to.
    let traced = points.trace.as_deref().zip(recorders.as_deref());
    if let Some((stem, recs)) = traced {
        for (&load, rec) in loads.iter().zip(recs) {
            write_trace_artifacts(stem, load, loads.len() > 1, rec, report)?;
        }
    }
    let mut table = results_table(s.faults().is_some());
    let mut totals = [0u64; 4];
    for row in &rows {
        for (t, c) in totals.iter_mut().zip(row.counters) {
            *t += c;
        }
        table.push_row(row.cells.iter().cloned().map(Cell::Text).collect());
        report.stdout.push(row.line.clone());
    }
    if let Some((hits, misses)) = report.cache {
        report
            .stdout
            .push(format!("cache: {hits} hits, {misses} misses"));
    }
    if let Some(path) = points.csv.as_deref() {
        netstats::write_csv(&table, path).map_err(io_error("write", path))?;
        let mut manifest = cli_manifest(req.quick, path, s, loads, wall, totals, traced.is_some());
        if let Some((stem, recs)) = traced {
            manifest.push("telemetry", telemetry_manifest(s, stem, recs));
        }
        if let Some(stats) = report.cache {
            manifest.push("cache", cache_manifest(stats));
        }
        let mpath = manifest_sibling(path);
        netstats::write_manifest(&manifest, &mpath).map_err(io_error("write", &mpath))?;
        report.wrote(path.to_string());
        report.wrote(mpath);
    }
    report.rows = rows;
    Ok(())
}

/// Resolve the load points of one scenario into rows. With a cache:
/// look every point up, simulate only the misses, store them — rows are
/// byte-identical whether hit or miss, every miss notes its reason, and
/// a corrupt entry is a hard error. Without one every point is a miss
/// and nothing is stored. Hit/miss counts accumulate into
/// `report.cache`; `subject` prefixes the miss notes (`design` names
/// its candidate there).
fn resolve(
    points: &Points,
    cache: Option<&ResultCache>,
    exact: bool,
    subject: &str,
    report: &mut RunReport,
) -> Result<(Vec<PointRow>, Option<Vec<FlightRecorder>>), RequestError> {
    let (s, loads) = (&points.scenario, &points.loads);
    let faulted = s.faults().is_some();
    let mut rows: Vec<Option<PointRow>> = vec![None; loads.len()];
    // Keys are only worth computing (a scenario digest each) with a cache.
    let mut keys = Vec::new();
    if let Some(cache) = cache {
        keys.extend(loads.iter().map(|&l| point_cache_key(s, l, faulted, exact)));
        for ((row, &load), &key) in rows.iter_mut().zip(loads).zip(&keys) {
            match cache.lookup(key)? {
                Some(entry) => *row = Some(decode_point(&entry, faulted)?),
                None => report.notes.push(format!(
                    "cache miss: {subject}load {load:.2} (key 0x{key:016x}, no entry)"
                )),
            }
        }
    }
    let missing: Vec<usize> = (0..loads.len()).filter(|&i| rows[i].is_none()).collect();
    let miss_loads: Vec<f64> = missing.iter().map(|&i| loads[i]).collect();
    let (fresh, recorders) = simulate(points, &miss_loads, report)?;
    for (&i, out) in missing.iter().zip(&fresh) {
        let row = point_row(loads[i], out, faulted, exact);
        if let Some(cache) = cache {
            cache.store(keys[i], &encode_point(&row))?;
        }
        rows[i] = Some(row);
    }
    if cache.is_some() {
        let (hits, misses) = report.cache.get_or_insert((0, 0));
        *hits += (loads.len() - missing.len()) as u64;
        *misses += missing.len() as u64;
    }
    Ok((rows.into_iter().flatten().collect(), recorders))
}

impl Points {
    /// How the run at `load` executes: this request's shards and
    /// stepper, under the scenario's identity at that load.
    fn control<'a>(&self, load: f64) -> RunControl<'a> {
        RunControl {
            shards: self.shards,
            stepper: self.stepper,
            ..RunControl::new(self.scenario.state_ident(load))
        }
    }
}

/// Simulate load points, each under its [`Points::control`].
/// Checkpointed or resumed runs (`run` only, a single load) add
/// checkpoint/resume control — bit-identical to the plain path; traced
/// runs go one load at a time (the recorder is a per-run accumulator);
/// everything else through the parallel sweep pool. A wedged run
/// (possible under aggressive fault plans) surfaces as a structured
/// error.
fn simulate(
    ctl: &Points,
    loads: &[f64],
    report: &mut RunReport,
) -> Result<(Vec<SimOutcome>, Option<Vec<FlightRecorder>>), RequestError> {
    let s = &ctl.scenario;
    if ctl.checkpoint_every.is_none() && ctl.resume.is_none() {
        if ctl.trace.is_none() {
            let outs = sweep_pool(loads, |l| s.try_simulate_controlled(l, &mut ctl.control(l)))?;
            return Ok((outs, None));
        }
        let mut outs = Vec::with_capacity(loads.len());
        let mut recs = Vec::with_capacity(loads.len());
        for &l in loads {
            let (o, r) = s.try_simulate_traced_controlled(l, &mut ctl.control(l))?;
            outs.push(o);
            recs.push(r);
        }
        return Ok((outs, Some(recs)));
    }

    let load = loads[0];
    let mut run = ctl.control(load);
    if let Some(path) = ctl.resume.as_deref() {
        let bytes = std::fs::read(path).map_err(io_error("read checkpoint", path))?;
        let snap = RunSnapshot::from_bytes(&bytes)?;
        report.notes.push(format!(
            "resume: {path} (cycle {}, ident 0x{:016x}, state hash 0x{:016x})",
            snap.cycle(),
            snap.ident(),
            snap.state_hash(),
        ));
        run.resume = Some(snap);
    }
    run.checkpoint_every = ctl.checkpoint_every;
    // The sink cannot return an error into the engine loop: the first
    // failure is kept, later checkpoints are skipped, and the request
    // fails once the run returns.
    let mut failed: Option<RequestError> = None;
    let notes = &mut report.notes;
    let mut sink = |snap: &RunSnapshot| {
        let (Some(path), None) = (ctl.snapshot.as_deref(), &failed) else {
            return;
        };
        // Write-then-rename so a crash mid-checkpoint leaves the
        // previous checkpoint intact, never a torn file.
        let tmp = format!("{path}.tmp");
        let bytes = snap.to_bytes();
        let written = write_bounded(&tmp, &|out| {
            bytes.chunks(WRITE_CHUNK).try_for_each(|c| out.write_all(c))
        })
        .map_err(io_error("write checkpoint", &tmp))
        .and_then(|()| {
            std::fs::rename(&tmp, path).map_err(io_error("rename checkpoint into", path))
        });
        match written {
            Ok(()) => notes.push(format!("checkpoint: cycle {} -> {path}", snap.cycle())),
            Err(e) => failed = Some(e),
        }
    };
    if ctl.snapshot.is_some() {
        run.on_checkpoint = Some(&mut sink);
    }
    let result = if ctl.trace.is_some() {
        s.try_simulate_traced_controlled(load, &mut run)
            .map(|(out, rec)| (vec![out], Some(vec![rec])))
    } else {
        s.try_simulate_controlled(load, &mut run)
            .map(|out| (vec![out], None))
    };
    match failed {
        Some(e) => Err(e),
        None => Ok(result?),
    }
}

/// Largest single `write(2)` the artifact path issues. Traced runs
/// export tens of megabytes; on ext4 one multi-megabyte `write` into a
/// file another process just truncated turns slow every other time
/// (docs/PERFORMANCE.md, "Large writes"), bounded writes never do.
const WRITE_CHUNK: usize = 128 << 10;

/// Create (or truncate) `path` and stream `fill` into it through a
/// [`WRITE_CHUNK`]-sized buffer, reporting flush errors. `fill` must
/// not hand the writer a slice larger than the buffer (it would pass
/// through as one `write`).
fn write_bounded(
    path: &str,
    fill: &dyn Fn(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let mut out = BufWriter::with_capacity(WRITE_CHUNK, File::create(path)?);
    fill(&mut out)?;
    out.flush()
}

/// Write the four telemetry artifacts of one traced load point: JSONL
/// event log, Chrome trace, latency-decomposition CSV and
/// channel-utilization CSV. Multi-load runs tag each file with the load
/// percentage (`stem.l040.trace.jsonl`).
fn write_trace_artifacts(
    stem: &str,
    load: f64,
    tagged: bool,
    rec: &FlightRecorder,
    report: &mut RunReport,
) -> Result<(), RequestError> {
    let tag = if tagged {
        format!(".l{:03}", (load * 100.0).round() as u32)
    } else {
        String::new()
    };
    let mut write = |suffix: &str,
                     fill: &dyn Fn(&mut BufWriter<File>) -> io::Result<()>|
     -> Result<(), RequestError> {
        let path = format!("{stem}{tag}{suffix}");
        if let Some(parent) = std::path::Path::new(&path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(io_error("create directory for", &path))?;
            }
        }
        write_bounded(&path, fill).map_err(io_error("write", &path))?;
        report.wrote(path);
        Ok(())
    };
    write(".trace.jsonl", &|out| {
        trace::write_events_jsonl(rec.events(), out)
    })?;
    write(".trace.json", &|out| trace::write_chrome_trace(rec, out))?;
    write(".breakdown.csv", &|out| {
        rec.breakdown_table().write_csv(out)
    })?;
    write(".util.csv", &|out| {
        rec.utilization_series_table(8).write_csv(out)
    })?;
    if let Some(sum) = rec.breakdown_summary() {
        report.stdout.push(format!(
            "load {:>5.2}: latency decomposition (mean cycles over {} packets): \
             src_queue {:.1} + routing {:.1} + blocked {:.1} + transfer {:.1} = {:.1} \
             ({:.0}% blocked)",
            load,
            sum.packets,
            sum.mean_src_queue,
            sum.mean_routing,
            sum.mean_blocked,
            sum.mean_transfer,
            sum.mean_total,
            sum.blocked_share() * 100.0,
        ));
    }
    Ok(())
}

/// The `cache` manifest object: hit and miss counts.
fn cache_manifest((hits, misses): (u64, u64)) -> ManifestValue {
    let mut c = Manifest::new();
    c.push("hits", hits as f64);
    c.push("misses", misses as f64);
    ManifestValue::Object(c)
}

/// The run manifest written next to `--csv` output (same schema as the
/// bench binaries'). Untraced runs keep the historical
/// `netperf-run-manifest/1` bytes; traced runs advertise
/// `netperf-run-manifest/2` (the caller appends their `telemetry`
/// object); faulted runs advertise `netperf-run-manifest/3` and add
/// drop accounting (the scenario object then carries a `faults`
/// description). Cached runs get a trailing `cache` object appended;
/// every historical key keeps its bytes.
fn cli_manifest(
    quick: bool,
    csv: &str,
    s: &Scenario,
    loads: &[f64],
    wall: f64,
    [created, delivered, dropped, unroutable]: [u64; 4],
    traced: bool,
) -> Manifest {
    let faulted = s.faults().is_some();
    let mut m = netstats::export::run_manifest_preamble(
        netstats::export::run_manifest_schema_tag(traced, faulted),
        "netperf-cli",
        csv,
        quick,
    );
    m.push(
        "loads",
        ManifestValue::List(loads.iter().map(|&l| ManifestValue::Num(l)).collect()),
    );
    m.push(
        "engine",
        netstats::export::engine_manifest(&crate::engine_features()),
    );
    m.push("scenarios", ManifestValue::List(vec![s.manifest().into()]));
    m.push("wall_clock_secs", wall);
    let mut c =
        netstats::export::counters_manifest(loads.len() as f64, created as f64, delivered as f64);
    if faulted {
        c.push("dropped_packets", dropped as f64);
        c.push("unroutable_packets", unroutable as f64);
    }
    m.push("counters", ManifestValue::Object(c));
    m
}

/// The `telemetry` manifest object of a traced run.
fn telemetry_manifest(s: &Scenario, stem: &str, recs: &[FlightRecorder]) -> Manifest {
    let cfg = s.telemetry().unwrap_or_default();
    let mut t = Manifest::new();
    t.push("stride", cfg.stride as f64);
    t.push("record_events", cfg.record_events);
    t.push("trace_stem", stem);
    t.push(
        "runs",
        ManifestValue::List(recs.iter().map(|r| r.manifest().into()).collect()),
    );
    t
}
