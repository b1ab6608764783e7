//! In-process replay of a workload's operations through the crates'
//! public functions, with a span around every call into a layer.
//!
//! A plain simulation is replayed by [`mirror`], a copy of the
//! measurement protocol in `netsim::sim` (warm-up, ten batches, outcome
//! assembly) written against the engine's public API so that spans can
//! sit between its steps; hooks inside `netsim` are a later change.
//! Every mirrored outcome is compared with `Scenario::try_simulate`'s —
//! the copy is only trusted while they are identical. Checkpointed,
//! resumed and traced runs go through the library's own entry points
//! (their state is private), with spans around the calls and inside the
//! checkpoint sink.

use crate::span::Tracer;
use crate::spec::{Op, Request};
use netsim::engine::{Engine, Stall};
use netsim::flit::NEVER;
use netsim::scenario::{Scenario, SpecVisitor};
use netsim::sim::{InjectionSpec, SimConfig, SimError, SimOutcome};
use netsim::wiring::Wiring;
use netsim::{FaultModel, NoFaults, RunControl, RunSnapshot, ShardPlan};
use netstats::cache::{KeyDigest, ResultCache};
use netstats::export::format_num;
use netstats::{Accumulator, BatchMeans, Cell, Histogram, Manifest, ManifestValue, Table};
use routing::RoutingAlgorithm;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use telemetry::{trace, FlightRecorder, NullProbe};
use traffic::{Bernoulli, InjectionProcess, OnOffBursty, Periodic, TrafficGen};

/// Named sums collected while replaying: seconds per span name, counts,
/// byte totals. Metrics are derived from these when the run ends.
#[derive(Default)]
pub struct Sums(BTreeMap<String, f64>);

impl Sums {
    pub fn add(&mut self, key: &str, value: f64) {
        *self.0.entry(key.to_string()).or_insert(0.0) += value;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

/// How the engine is stepped.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// The default active-set stepper (`Engine::run_checked`).
    Active,
    Soa,
    Wheel,
    Sharded {
        shards: usize,
        threads: usize,
    },
    WheelSharded {
        shards: usize,
        threads: usize,
    },
}

impl Mode {
    /// Key prefix under which a run in this mode is summed; the default
    /// stepper of an operation is `engine`, `shard` when it is sharded.
    fn prefix(self) -> &'static str {
        match self {
            Mode::Active => "engine",
            Mode::Soa => "engine.soa",
            Mode::Wheel => "engine.wheel",
            Mode::Sharded { threads: 1, .. } => "shard.t1",
            Mode::Sharded { .. } => "shard",
            Mode::WheelSharded { .. } => "shard.wheel",
        }
    }
}

fn make_process(spec: InjectionSpec) -> Box<dyn InjectionProcess> {
    match spec {
        InjectionSpec::Bernoulli { packets_per_cycle } => {
            Box::new(Bernoulli::new(packets_per_cycle))
        }
        InjectionSpec::Periodic { period } => Box::new(Periodic::every(period)),
        InjectionSpec::OnOff {
            peak_rate,
            mean_on,
            mean_off,
        } => Box::new(OnOffBursty::new(peak_rate, mean_on, mean_off)),
    }
}

fn step<A: RoutingAlgorithm + ?Sized, F: FaultModel + Sync>(
    eng: &mut Engine<'_, A, NullProbe, F>,
    mode: Mode,
    cycles: u32,
    plan: &mut Option<ShardPlan>,
) -> Result<(), Stall> {
    match mode {
        Mode::Active => eng.run_checked(cycles),
        Mode::Soa => eng.run_checked_soa(cycles),
        Mode::Wheel => eng.run_checked_wheel(cycles),
        Mode::Sharded { .. } => {
            eng.run_checked_sharded(cycles, plan.as_mut().expect("sharded modes plan first"))
        }
        Mode::WheelSharded { .. } => {
            eng.run_checked_wheel_sharded(cycles, plan.as_mut().expect("sharded modes plan first"))
        }
    }
}

/// What one mirrored simulation produced and cost.
pub struct Mirrored {
    pub outcome: SimOutcome,
    /// Seconds constructing the engine.
    pub new_s: f64,
    /// Seconds inside the engine's run calls (warm-up + measurement).
    pub stepping_s: f64,
}

/// The measurement protocol of `netsim::sim::measure_ctl`, span by span:
/// `engine.new`, one `engine.warmup` run call, ten `engine.batch` run
/// calls, `sim.assemble` (packet-table scan, histogram, batch means).
/// Sums go under the mode's prefix (`engine.*`, `engine.soa.*`, ...).
pub fn mirror<A: RoutingAlgorithm + ?Sized, F: FaultModel + Sync>(
    tr: &mut Tracer,
    sums: &mut Sums,
    algo: &A,
    cfg: &SimConfig,
    faults: F,
    mode: Mode,
) -> Result<Mirrored, SimError> {
    const NUM_BATCHES: u32 = 10;
    assert!(cfg.warmup_cycles < cfg.total_cycles);
    let num_nodes = algo.topology().num_nodes();
    let injection = cfg.injection;

    let open = tr.begin("engine.new");
    let mut eng = Engine::with_probe_and_faults(
        algo,
        cfg.buffer_depth,
        cfg.flits_per_packet,
        TrafficGen::new(cfg.pattern, num_nodes),
        &move |_| make_process(injection),
        cfg.seed,
        NullProbe,
        faults,
    );
    eng.set_injection_limit(cfg.injection_limit);
    eng.set_request_reply(cfg.request_reply);
    let new_s = tr.end(open);

    let mut plan = None;
    let mut plan_s = 0.0;
    if let Mode::Sharded { shards, threads } | Mode::WheelSharded { shards, threads } = mode {
        let (p, s) = tr.time("shard.plan", || eng.shard_plan(shards, threads));
        plan = Some(p);
        plan_s = s;
    }

    let cpu_before = crate::child::self_cpu_s();
    let open = tr.begin("engine.warmup");
    let stepped = step(&mut eng, mode, cfg.warmup_cycles, &mut plan);
    let warmup_s = tr.end(open);
    stepped.map_err(SimError::Deadlock)?;
    let warm = eng.counters();

    let window = cfg.total_cycles - cfg.warmup_cycles;
    let mut batches = BatchMeans::new();
    let mut prev_delivered = warm.delivered_flits;
    let mut remaining = window;
    let mut measure_s = 0.0;
    for b in 0..NUM_BATCHES {
        let len = remaining / (NUM_BATCHES - b);
        remaining -= len;
        if len == 0 {
            continue;
        }
        let open = tr.begin("engine.batch");
        let stepped = step(&mut eng, mode, len, &mut plan);
        measure_s += tr.end(open);
        stepped.map_err(SimError::Deadlock)?;
        let now = eng.counters().delivered_flits;
        batches.push((now - prev_delivered) as f64 / (len as f64 * num_nodes as f64));
        prev_delivered = now;
    }
    let cpu_s = crate::child::self_cpu_s() - cpu_before;

    let open = tr.begin("sim.assemble");
    let end = eng.counters();
    let window = window as f64;
    let accepted_rate =
        (end.delivered_flits - warm.delivered_flits) as f64 / (window * num_nodes as f64);
    let created = end.created_packets - warm.created_packets;
    let generated_rate = created as f64 * cfg.flits_per_packet as f64 / (window * num_nodes as f64);
    let mut latency = Accumulator::new();
    let mut latency_hist = Histogram::new(8.0, 512);
    let mut delivered_measured = 0u64;
    for p in eng.packets() {
        if p.injected == NEVER || p.injected < cfg.warmup_cycles {
            continue;
        }
        if let Some(l) = p.latency() {
            latency.push(l as f64);
            latency_hist.record(l as f64);
            delivered_measured += 1;
        }
    }
    let outcome = SimOutcome {
        offered_fraction: cfg.offered_fraction(),
        generated_fraction: generated_rate / cfg.capacity_flits_per_cycle,
        accepted_fraction: accepted_rate / cfg.capacity_flits_per_cycle,
        accepted_flits_per_node_cycle: accepted_rate,
        latency,
        latency_hist,
        delivered_packets: delivered_measured,
        created_packets: created,
        backlog_packets: eng.source_queue_len(),
        escape_fraction: end.escape_routings as f64 / end.routed_headers.max(1) as f64,
        dropped_packets: end.dropped_packets - warm.dropped_packets,
        unroutable_packets: end.unroutable_packets - warm.unroutable_packets,
        accepted_ci: batches.ci95(),
    };
    tr.end(open);

    if mode == Mode::Soa {
        // The price of leaving SoA mode: write the banks back.
        let ((), s) = tr.time("engine.to_aos", || eng.to_aos());
        sums.add("engine.to_aos_s", s);
    }

    let keyed = |suffix: &str| format!("{}.{suffix}", mode.prefix());
    sums.add(&keyed("new_s"), new_s);
    sums.add(&keyed("warmup_s"), warmup_s);
    sums.add(&keyed("measure_s"), measure_s);
    sums.add(&keyed("cycles"), cfg.total_cycles as f64);
    sums.add(&keyed("flit_moves"), end.flit_moves as f64);
    sums.add(&keyed("cpu_s"), cpu_s);
    sums.add(&keyed("plan_s"), plan_s);
    Ok(Mirrored {
        outcome,
        new_s,
        stepping_s: warmup_s + measure_s,
    })
}

/// Replay one simulation of `scenario` at `load`: resolve the config,
/// build the network (`routing.build` spans topology *and* algorithm
/// construction: `Scenario::with_algorithm` offers no seam between
/// them), compile the fault plan if there is one, and [`mirror`] the run
/// on the concrete algorithm type, as the real path does.
pub fn replay_sim(
    tr: &mut Tracer,
    sums: &mut Sums,
    scenario: &Scenario,
    load: f64,
    mode: Mode,
) -> Result<Mirrored, SimError> {
    struct Visit<'t> {
        tr: &'t mut Tracer,
        sums: &'t mut Sums,
        build: crate::span::Open,
        cfg: SimConfig,
        scenario: &'t Scenario,
        mode: Mode,
    }
    impl SpecVisitor for Visit<'_> {
        type Out = Result<Mirrored, SimError>;
        fn visit<A: RoutingAlgorithm + 'static>(self, algo: A) -> Self::Out {
            self.tr.end(self.build);
            match self.scenario.faults() {
                None => mirror(self.tr, self.sums, &algo, &self.cfg, NoFaults, self.mode),
                Some(plan) => {
                    let (w, _) = self
                        .tr
                        .time("wiring.build", || Wiring::from_topology(algo.topology()));
                    let (state, s) = self.tr.time("fault.compile", || {
                        plan.compile(&w).expect("fault plan validated at build")
                    });
                    self.sums.add("fault.compile_s", s);
                    mirror(self.tr, self.sums, &algo, &self.cfg, state, self.mode)
                }
            }
        }
    }
    let (cfg, s) = tr.time("scenario.config", || scenario.config_at(load));
    sums.add("scenario.build_s", s);
    let build = tr.begin("routing.build");
    scenario.with_algorithm(Visit {
        tr,
        sums,
        build,
        cfg,
        scenario,
        mode,
    })
}

/// One result row as the CLI renders it: the CSV cells and the manifest
/// counters (created, delivered, dropped, unroutable).
pub struct Row {
    pub cells: Vec<String>,
    pub counters: [u64; 4],
}

pub fn render_row(load: f64, out: &SimOutcome, faulted: bool) -> Row {
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
    Row {
        cells,
        counters: [
            out.created_packets,
            out.delivered_packets,
            out.dropped_packets,
            out.unroutable_packets,
        ],
    }
}

/// Extras of a manifest beyond the plain run's.
#[derive(Default)]
pub struct ManifestExtras<'a> {
    pub recorder: Option<&'a FlightRecorder>,
    pub trace_stem: Option<&'a str>,
    pub cache: Option<(u64, u64)>,
}

/// Render and write the CSV + manifest pair the CLI writes for `--csv`,
/// from the same public helpers: `netstats.csv_render` and
/// `netstats.manifest_render` cover building and serializing, `io.write`
/// the file writes. Returns the CSV text.
#[allow(clippy::too_many_arguments)]
pub fn write_outputs(
    tr: &mut Tracer,
    sums: &mut Sums,
    scenario: &Scenario,
    loads: &[f64],
    rows: &[Row],
    csv_path: &Path,
    quick: bool,
    extras: ManifestExtras<'_>,
) -> String {
    let faulted = scenario.faults().is_some();
    let (csv, s) = tr.time("netstats.csv_render", || {
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
        let mut table = Table::with_columns(cols);
        for row in rows {
            table.push_row(row.cells.iter().cloned().map(Cell::Text).collect());
        }
        table.to_csv()
    });
    sums.add("netstats.csv_render_s", s);

    let (manifest, s) = tr.time("netstats.manifest_render", || {
        let mut totals = [0u64; 4];
        for row in rows {
            for (t, c) in totals.iter_mut().zip(row.counters) {
                *t += c;
            }
        }
        let mut m = netstats::export::run_manifest_preamble(
            netstats::export::run_manifest_schema_tag(extras.recorder.is_some(), faulted),
            "netperf-benchmark-replay",
            &csv_path
                .file_name()
                .map_or_else(String::new, |n| n.to_string_lossy().into_owned()),
            quick,
        );
        m.push(
            "loads",
            ManifestValue::List(loads.iter().map(|&l| ManifestValue::Num(l)).collect()),
        );
        m.push(
            "engine",
            netstats::export::engine_manifest(&netsim::engine_features()),
        );
        m.push(
            "scenarios",
            ManifestValue::List(vec![scenario.manifest().into()]),
        );
        m.push("wall_clock_secs", 0.0);
        let mut c = netstats::export::counters_manifest(
            rows.len() as f64,
            totals[0] as f64,
            totals[1] as f64,
        );
        if faulted {
            c.push("dropped_packets", totals[2] as f64);
            c.push("unroutable_packets", totals[3] as f64);
        }
        m.push("counters", ManifestValue::Object(c));
        if let Some(rec) = extras.recorder {
            let cfg = scenario.telemetry().unwrap_or_default();
            let mut t = Manifest::new();
            t.push("stride", cfg.stride as f64);
            t.push("record_events", cfg.record_events);
            if let Some(stem) = extras.trace_stem {
                t.push("trace_stem", stem);
            }
            t.push("runs", ManifestValue::List(vec![rec.manifest().into()]));
            m.push("telemetry", t);
        }
        if let Some((hits, misses)) = extras.cache {
            let mut c = Manifest::new();
            c.push("hits", hits as f64);
            c.push("misses", misses as f64);
            m.push("cache", ManifestValue::Object(c));
        }
        m.to_json()
    });
    sums.add("netstats.manifest_render_s", s);

    let manifest_path = csv_path.with_extension("manifest.json");
    tr.time("io.write", || {
        std::fs::write(csv_path, &csv).expect("write replayed CSV");
        std::fs::write(&manifest_path, manifest).expect("write replayed manifest");
    });
    csv
}

/// One mirrored simulation of the replayed operations.
pub struct SimRecord {
    pub label: String,
    pub accepted_fraction: f64,
    /// `{:?}` of the outcome: what the plain library call and every
    /// other execution mode must reproduce.
    pub outcome: String,
    /// Seconds inside the engine's run calls.
    pub stepping_s: f64,
}

/// State of one workload replay.
pub struct Replay<'a> {
    pub tr: &'a mut Tracer,
    pub sums: Sums,
    /// Where replayed artifacts go (fresh, removed by the caller).
    pub dir: PathBuf,
    pub seed: u64,
    /// Stepping mode of the plain `run`/`sweep` operations.
    pub mode: Mode,
    pub failures: Vec<String>,
    pub attempted: u64,
    /// CSV text each replayed operation wrote, by file name.
    pub csvs: BTreeMap<String, String>,
    /// Every simulation the operations mirrored, in order.
    pub sims: Vec<SimRecord>,
    /// `(hit, seconds)` of every replayed serve request, whole `op` span.
    pub request_secs: Vec<(bool, f64)>,
}

impl Replay<'_> {
    fn mirrored(&mut self, scenario: &Scenario, load: f64) -> Option<Mirrored> {
        let open = self.tr.begin("sim.replay");
        let out = replay_sim(self.tr, &mut self.sums, scenario, load, self.mode);
        let secs = self.tr.end(open);
        match out {
            Ok(m) => {
                self.sums.add("replay.sim_s", secs);
                self.sums.add("replay.engine_s", m.new_s + m.stepping_s);
                self.sims.push(SimRecord {
                    label: scenario.label().to_string(),
                    accepted_fraction: m.outcome.accepted_fraction,
                    outcome: format!("{:?}", m.outcome),
                    stepping_s: m.stepping_s,
                });
                Some(m)
            }
            Err(e) => {
                self.failures
                    .push(format!("{} at load {load}: {e}", scenario.label()));
                None
            }
        }
    }

    /// Replay one command-line operation under an `op` root span.
    pub fn op(&mut self, op: &Op) {
        self.attempted += 1;
        self.tr.next_op();
        let root = self.tr.begin("op");
        let (scenario, secs) = self.tr.time("scenario.build", || op.scenario(self.seed));
        self.sums.add("scenario.build_s", secs);
        match (op, scenario) {
            (Op::Run { csv, len, .. }, Some(s)) | (Op::Sweep { csv, len, .. }, Some(s)) => {
                let loads = op.loads();
                let faulted = s.faults().is_some();
                let rows: Vec<Row> = loads
                    .iter()
                    .filter_map(|&l| Some(render_row(l, &self.mirrored(&s, l)?.outcome, faulted)))
                    .collect();
                let quick = *len == crate::spec::Len::Quick;
                let text = write_outputs(
                    self.tr,
                    &mut self.sums,
                    &s,
                    &loads,
                    &rows,
                    &self.dir.join(csv),
                    quick,
                    ManifestExtras::default(),
                );
                self.csvs.insert(csv.clone(), text);
            }
            (
                Op::Checkpointed {
                    load,
                    every,
                    snapshot,
                    csv,
                    ..
                },
                Some(s),
            ) => self.controlled(&s, *load, Some(*every), None, snapshot, csv),
            (
                Op::Resume {
                    load,
                    snapshot,
                    csv,
                    ..
                },
                Some(s),
            ) => self.controlled(&s, *load, None, Some(snapshot), snapshot, csv),
            (Op::SnapshotInfo { snapshot }, _) => {
                if let Some(snap) = self.read_snapshot(snapshot) {
                    std::hint::black_box(format!(
                        "{} {} {} {}",
                        snap.ident(),
                        snap.cycle(),
                        snap.batches_recorded(),
                        snap.state_hash()
                    ));
                }
            }
            (
                Op::Traced {
                    load, stem, csv, ..
                },
                Some(s),
            ) => self.traced(&s, *load, stem, csv),
            (_, None) => unreachable!("every simulating operation names a scenario"),
        }
        self.tr.end(root);
    }

    fn read_snapshot(&mut self, name: &str) -> Option<RunSnapshot> {
        let path = self.dir.join(name);
        let (bytes, _) = self.tr.time("io.read", || std::fs::read(&path));
        let bytes = match bytes {
            Ok(b) => b,
            Err(e) => {
                self.failures.push(format!("{name}: {e}"));
                return None;
            }
        };
        let (snap, s) = self
            .tr
            .time("snapshot.decode", || RunSnapshot::from_bytes(&bytes));
        self.sums.add("snapshot.decode_s", s);
        match snap {
            Ok(s) => Some(s),
            Err(e) => {
                self.failures.push(format!("{name}: {e}"));
                None
            }
        }
    }

    /// A checkpointing and/or resumed run through
    /// `Scenario::try_simulate_controlled`; the checkpoint sink encodes
    /// and writes atomically as the CLI's does.
    fn controlled(
        &mut self,
        s: &Scenario,
        load: f64,
        every: Option<u32>,
        resume: Option<&str>,
        snapshot: &str,
        csv: &str,
    ) {
        let (ident, secs) = self.tr.time("scenario.state_ident", || s.state_ident(load));
        self.sums.add("scenario.build_s", secs);
        let mut ctl = RunControl::new(ident);
        if let Some(name) = resume {
            ctl.resume = self.read_snapshot(name);
            if ctl.resume.is_none() {
                return;
            }
        }
        ctl.checkpoint_every = every;
        let path = self.dir.join(snapshot);
        let tmp = self.dir.join(format!("{snapshot}.tmp"));
        let open = self.tr.begin("sim.controlled");
        let (tr, sums) = (&mut *self.tr, &mut self.sums);
        let mut sink = |snap: &RunSnapshot| {
            let (bytes, secs) = tr.time("snapshot.encode", || snap.to_bytes());
            sums.add("snapshot.encode_s", secs);
            sums.add("snapshot.encodes", 1.0);
            sums.add("snapshot.bytes", bytes.len() as f64);
            tr.time("io.write", || {
                std::fs::write(&tmp, &bytes).expect("write checkpoint");
                std::fs::rename(&tmp, &path).expect("rename checkpoint into place");
            });
        };
        if every.is_some() {
            ctl.on_checkpoint = Some(&mut sink);
        }
        let out = s.try_simulate_controlled(load, &mut ctl);
        drop(ctl);
        self.tr.end(open);
        match out {
            Ok(out) => {
                let rows = [render_row(load, &out, false)];
                let text = write_outputs(
                    self.tr,
                    &mut self.sums,
                    s,
                    &[load],
                    &rows,
                    &self.dir.join(csv),
                    false,
                    ManifestExtras::default(),
                );
                self.csvs.insert(csv.to_string(), text);
            }
            Err(e) => self.failures.push(format!("{csv}: {e}")),
        }
    }

    /// A traced run through `Scenario::try_simulate_traced`, then the
    /// four telemetry exports the CLI writes.
    fn traced(&mut self, s: &Scenario, load: f64, stem: &str, csv: &str) {
        let s = s
            .clone()
            .with_telemetry(telemetry::TelemetryConfig::default());
        let (out, secs) = self.tr.time("sim.traced", || s.try_simulate_traced(load));
        self.sums.add("sim.traced_s", secs);
        let (out, rec) = match out {
            Ok(pair) => pair,
            Err(e) => {
                self.failures.push(format!("{csv}: {e}"));
                return;
            }
        };
        type Export = fn(&FlightRecorder) -> String;
        let exports: [(&str, &'static str, Export); 4] = [
            (".trace.jsonl", "telemetry.events_jsonl", |r| {
                trace::events_jsonl(r.events())
            }),
            (".trace.json", "telemetry.chrome_trace", trace::chrome_trace),
            (".breakdown.csv", "telemetry.breakdown_csv", |r| {
                r.breakdown_table().to_csv()
            }),
            (".util.csv", "telemetry.util_csv", |r| {
                r.utilization_series_table(8).to_csv()
            }),
        ];
        for (suffix, span, export) in exports {
            let (text, secs) = self.tr.time(span, || export(&rec));
            self.sums.add("telemetry.export_s", secs);
            self.sums.add("telemetry.bytes", text.len() as f64);
            let path = self.dir.join(format!("{stem}{suffix}"));
            self.tr.time("io.write", || {
                std::fs::write(&path, text).expect("write telemetry export")
            });
        }
        self.sums.add("telemetry.events", rec.events().len() as f64);
        let rows = [render_row(load, &out, false)];
        let text = write_outputs(
            self.tr,
            &mut self.sums,
            &s,
            &[load],
            &rows,
            &self.dir.join(csv),
            false,
            ManifestExtras {
                recorder: Some(&rec),
                trace_stem: Some(stem),
                cache: None,
            },
        );
        self.csvs.insert(csv.to_string(), text);
    }

    /// Replay one `serve-mix` request in-process: what the child `netperf
    /// run --cache` does between argv parsing and exit — resolve the
    /// scenario, digest its identity into the cache key, look it up,
    /// simulate and store on a miss, render the CSV and manifest.
    pub fn request(&mut self, index: usize, req: &Request, cache: &ResultCache) {
        self.attempted += 1;
        self.tr.next_op();
        let root = self.tr.begin("op");
        let (s, secs) = self.tr.time("scenario.build", || {
            crate::spec::scenario_for(req.scenario, crate::spec::Len::Default, self.seed)
        });
        self.sums.add("scenario.build_s", secs);
        let (key, secs) = self.tr.time("scenario.state_ident", || {
            let mut k = KeyDigest::new("netperf-point-cache/1");
            k.push_u64("ident", s.state_ident(req.load))
                .push_u64("faulted_columns", 0);
            k.finish()
        });
        self.sums.add("scenario.build_s", secs);
        let (found, secs) = self.tr.time("netstats.cache_lookup", || cache.lookup(key));
        self.sums.add("netstats.cache_lookup_s", secs);
        let hit = matches!(found, Ok(Some(_)));
        let row = match found {
            Err(e) => {
                self.failures.push(format!("request {index}: {e}"));
                None
            }
            Ok(Some(entry)) => decode_row(&entry),
            Ok(None) => self.mirrored(&s, req.load).map(|m| {
                let row = render_row(req.load, &m.outcome, false);
                let artifacts = vec![
                    (
                        "row.tsv".to_string(),
                        (row.cells.join("\t") + "\n").into_bytes(),
                    ),
                    (
                        "counters.txt".to_string(),
                        format!(
                            "{} {} {} {}\n",
                            row.counters[0], row.counters[1], row.counters[2], row.counters[3]
                        )
                        .into_bytes(),
                    ),
                ];
                let (stored, secs) = self
                    .tr
                    .time("netstats.cache_store", || cache.store(key, &artifacts));
                self.sums.add("netstats.cache_store_s", secs);
                if let Err(e) = stored {
                    self.failures.push(format!("request {index}: {e}"));
                }
                row
            }),
        };
        if hit != (req.first != index) {
            self.failures.push(format!(
                "request {index}: cache {} where the request list says otherwise",
                if hit { "hit" } else { "miss" }
            ));
        }
        if let Some(row) = row {
            let name = Request::csv(index);
            let text = write_outputs(
                self.tr,
                &mut self.sums,
                &s,
                &[req.load],
                &[row],
                &self.dir.join(&name),
                false,
                ManifestExtras {
                    cache: Some(if hit { (1, 0) } else { (0, 1) }),
                    ..Default::default()
                },
            );
            self.csvs.insert(name, text);
        }
        let secs = self.tr.end(root);
        self.request_secs.push((hit, secs));
    }
}

/// A cached row back into cells and counters (the entry layout the
/// replay's own misses store; the CLI's entries carry one more artifact).
fn decode_row(entry: &netstats::cache::CacheEntry) -> Option<Row> {
    let text = |name: &str| String::from_utf8(entry.artifact(name)?.to_vec()).ok();
    let cells = text("row.tsv")?
        .trim_end_matches('\n')
        .split('\t')
        .map(str::to_string)
        .collect();
    let nums: Vec<u64> = text("counters.txt")?
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    Some(Row {
        cells,
        counters: nums.try_into().ok()?,
    })
}
