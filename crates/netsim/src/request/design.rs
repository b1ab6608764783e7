//! The design-space optimizer behind `netperf design`: enumerate,
//! price, screen, simulate, rank.

use super::{
    cache_manifest, invalid, io_error, manifest_sibling, resolve, Points, RequestError, RunReport,
    RunRequest,
};
use crate::scenario::{sweep_threads, RunLength, Scenario, TopologySpec};
use crate::sim::Stepper;
use costmodel::{enumerate_designs, DesignBudget, DesignPoint};
use netstats::cache::ResultCache;
use netstats::{Cell, Manifest, ManifestValue, Table};
use std::time::Instant;

/// One simulated design point: the enumerated/priced point plus the
/// measured saturation throughput (feasible points only) and the final
/// rank among feasible points (1 = best).
struct RankedPoint {
    point: DesignPoint,
    measured_saturation_fraction: Option<f64>,
    measured_bits_per_ns: Option<f64>,
    rank: Option<usize>,
}

/// The scenario a design point names: the family's default
/// routing/vcs choice from the enumeration, at the given run length.
fn design_scenario(p: &DesignPoint, run_length: RunLength) -> Result<Scenario, RequestError> {
    let named = |what: &str| invalid(format!("design point {} names an unknown {what}", p.id()));
    let spec = TopologySpec::parse(p.family, p.k, p.n).ok_or_else(|| named("family"))?;
    let spec = if spec.taper() == p.taper {
        spec
    } else {
        spec.with_taper(p.taper).ok_or_else(|| named("taper"))?
    };
    let mut pairs = spec.to_pairs();
    pairs.extend([
        ("algo", p.routing.to_string()),
        ("vcs", p.vcs.to_string()),
        ("warmup", run_length.warmup.to_string()),
        ("cycles", run_length.total.to_string()),
    ]);
    Scenario::from_pairs(&pairs).map_err(|e| invalid(format!("design point {}: {e}", p.id())))
}

pub(super) fn execute(
    req: &RunRequest,
    budget: &DesignBudget,
    out_stem: &str,
    report: &mut RunReport,
) -> Result<(), RequestError> {
    let (nodes, pin_budget) = (budget.nodes, budget.pin_budget);
    let points = enumerate_designs(budget);
    if points.is_empty() {
        return Err(invalid(format!(
            "no registered family has an exact {nodes}-node shape"
        )));
    }
    let feasible = points.iter().filter(|p| p.feasible).count();
    // Short sharded simulations on the feasible survivors, at offered
    // load 1.0: the ranking metric is sustained saturation throughput
    // in absolute bits/ns, the y-axis ceiling of the paper's Figure 7.
    let run_length = if req.quick {
        RunLength {
            warmup: 200,
            total: 1500,
        }
    } else {
        RunLength::quick()
    };
    let threads = sweep_threads();
    report.stdout.push(format!(
        "design space: {} nodes, {} data pins/router: {} candidates, {} feasible \
         (simulating each at saturation, {} cycles, {} threads)",
        nodes,
        pin_budget,
        points.len(),
        feasible,
        run_length.total,
        threads
    ));

    let start = Instant::now();
    let cache = req.cache.as_deref().map(ResultCache::open);
    let mut ranked = Vec::with_capacity(points.len());
    for point in points {
        if !point.feasible {
            ranked.push(RankedPoint {
                point,
                measured_saturation_fraction: None,
                measured_bits_per_ns: None,
                rank: None,
            });
            continue;
        }
        // The saturation measurement is a pure function of the scenario
        // identity at load 1.0, so it goes through the same cached
        // resolver as a `run` row — with the accepted fraction kept to
        // full precision, so a warm report is byte-identical to a cold
        // one.
        let candidate = Points {
            scenario: design_scenario(&point, run_length)?,
            loads: vec![1.0],
            // Sharded across the worker threads.
            shards: threads.min(point.routers).max(1),
            stepper: Stepper::Default,
            csv: None,
            trace: None,
            checkpoint_every: None,
            snapshot: None,
            resume: None,
        };
        let subject = format!("design point {}, ", point.id());
        let (mut rows, _) =
            resolve(&candidate, cache.as_ref(), true, &subject, report).map_err(|e| match e {
                RequestError::Run(e) => invalid(format!("design point {}: {e}", point.id())),
                other => other,
            })?;
        let row = rows.remove(0);
        let accepted = row.accepted.ok_or_else(|| {
            netstats::CacheError::Corrupt(format!(
                "design point {} is missing artifact accepted.txt",
                point.id()
            ))
        })?;
        report.rows.push(row);
        let bits = accepted * point.capacity_bits_per_ns;
        report.stdout.push(format!(
            "  {:42} pins {:>4}  clock {:>5.2} ns  sustained {:.3} of capacity = {:>6.2} bits/ns",
            point.id(),
            point.pins_per_router,
            point.clock_ns,
            accepted,
            bits
        ));
        ranked.push(RankedPoint {
            point,
            measured_saturation_fraction: Some(accepted),
            measured_bits_per_ns: Some(bits),
            rank: None,
        });
    }
    let wall = start.elapsed().as_secs_f64();
    if let Some((hits, misses)) = report.cache {
        report
            .stdout
            .push(format!("cache: {hits} hits, {misses} misses"));
    }

    // Rank: feasible by measured throughput (descending, id as the
    // deterministic tie-break), then the infeasible points by how far
    // they overshoot the budget (the nearest misses first).
    ranked.sort_by(|a, b| {
        let key = |r: &RankedPoint| r.measured_bits_per_ns.unwrap_or(f64::NEG_INFINITY);
        key(b)
            .total_cmp(&key(a))
            .then_with(|| a.point.pins_per_router.cmp(&b.point.pins_per_router))
            .then_with(|| a.point.id().cmp(&b.point.id()))
    });
    for (i, r) in ranked
        .iter_mut()
        .take_while(|r| r.point.feasible)
        .enumerate()
    {
        r.rank = Some(i + 1);
    }
    report.stdout.push(match ranked.first() {
        Some(RankedPoint {
            point,
            measured_bits_per_ns: Some(bits),
            ..
        }) => format!("best design: {} at {bits:.2} bits/ns sustained", point.id()),
        _ => format!("no feasible design under {pin_budget} pins/router"),
    });

    let csv_path = format!("{out_stem}.csv");
    netstats::write_csv(&design_table(&ranked), &csv_path).map_err(io_error("write", &csv_path))?;
    report.wrote(csv_path.clone());
    let mut m = design_header(
        "netperf-design-report/1",
        None,
        budget,
        req.quick,
        run_length,
    );
    m.push("offered_fraction", 1.0);
    push_counts(&mut m, &ranked);
    m.push(
        "points",
        ManifestValue::List(ranked.iter().map(|r| point_manifest(r).into()).collect()),
    );
    let json_path = format!("{out_stem}.json");
    netstats::write_manifest(&m, &json_path).map_err(io_error("write", &json_path))?;
    report.wrote(json_path);
    let manifest = design_manifest(
        budget, req.quick, run_length, threads, wall, &ranked, report,
    );
    let mpath = manifest_sibling(&csv_path);
    netstats::write_manifest(&manifest, &mpath).map_err(io_error("write", &mpath))?;
    report.wrote(mpath);
    Ok(())
}

/// Every column of the report for one point, in order. `None` is an
/// empty CSV cell and an absent JSON key; a boolean is 0/1 in the CSV.
fn point_fields(r: &RankedPoint) -> Vec<(&'static str, Option<ManifestValue>)> {
    let p = &r.point;
    let int = |x: usize| Some(ManifestValue::Num(x as f64));
    let num = |x: Option<f64>| x.map(ManifestValue::Num);
    vec![
        ("rank", r.rank.and_then(int)),
        ("id", Some(p.id().into())),
        ("family", Some(p.family.into())),
        ("k", int(p.k)),
        ("n", int(p.n)),
        ("taper", int(p.taper)),
        ("vcs", int(p.vcs)),
        ("routing", Some(p.routing.into())),
        ("routers", int(p.routers)),
        ("ports_per_router", int(p.ports_per_router)),
        ("flit_bytes", int(p.flit_bytes)),
        ("pins_per_router", int(p.pins_per_router)),
        ("feasible", Some(p.feasible.into())),
        ("bisection_links", int(p.bisection_links)),
        (
            "capacity_flits_per_cycle",
            num(Some(p.capacity_flits_per_cycle)),
        ),
        ("clock_ns", num(Some(p.clock_ns))),
        ("clock_bottleneck", Some(p.clock_bottleneck.into())),
        ("capacity_bits_per_ns", num(Some(p.capacity_bits_per_ns))),
        (
            "analytic_saturation_fraction",
            num(p.analytic_saturation_fraction),
        ),
        ("predicted_bits_per_ns", num(p.predicted_bits_per_ns)),
        (
            "measured_saturation_fraction",
            num(r.measured_saturation_fraction),
        ),
        ("measured_bits_per_ns", num(r.measured_bits_per_ns)),
    ]
}

fn design_table(ranked: &[RankedPoint]) -> Table {
    let columns = point_fields(&ranked[0]).into_iter().map(|(name, _)| name);
    let mut table = Table::with_columns(columns);
    for r in ranked {
        let cell = |(_, v): (_, Option<ManifestValue>)| match v {
            Some(ManifestValue::Num(x)) => Cell::Num(x),
            Some(ManifestValue::Bool(b)) => Cell::Num(b as u8 as f64),
            Some(ManifestValue::Text(t)) => Cell::Text(t),
            _ => Cell::Text(String::new()),
        };
        table.push_row(point_fields(r).into_iter().map(cell).collect());
    }
    table
}

fn point_manifest(r: &RankedPoint) -> Manifest {
    let mut m = Manifest::new();
    for (key, value) in point_fields(r) {
        if let Some(v) = value {
            m.push(key, v);
        }
    }
    m
}

/// The keys the report and its provenance manifest share: schema,
/// generator, (artifact,) budget, quick flag and run length.
fn design_header(
    schema: &str,
    artifact: Option<&str>,
    budget: &DesignBudget,
    quick: bool,
    run_length: RunLength,
) -> Manifest {
    let mut m = Manifest::new();
    m.push("schema", schema);
    m.push("generator", "netperf-cli");
    if let Some(a) = artifact {
        m.push("artifact", a);
    }
    let mut b = Manifest::new();
    b.push("nodes", budget.nodes as f64);
    b.push("pin_budget", budget.pin_budget as f64);
    m.push("budget", b);
    m.push("quick", quick);
    let mut rl = Manifest::new();
    rl.push("warmup", run_length.warmup as f64);
    rl.push("total", run_length.total as f64);
    m.push("run_length", rl);
    m
}

fn push_counts(m: &mut Manifest, ranked: &[RankedPoint]) {
    m.push("candidates", ranked.len() as f64);
    m.push(
        "feasible",
        ranked.iter().filter(|r| r.point.feasible).count() as f64,
    );
}

/// The provenance manifest sibling (`design_report.manifest.json`); the
/// machine-readable report itself (`design_report.json`) is validated
/// by `scripts/design_report.schema.json` in the verify pipeline.
fn design_manifest(
    budget: &DesignBudget,
    quick: bool,
    run_length: RunLength,
    threads: usize,
    wall: f64,
    ranked: &[RankedPoint],
    report: &RunReport,
) -> Manifest {
    let mut m = design_header(
        "netperf-design-manifest/1",
        Some("design_report"),
        budget,
        quick,
        run_length,
    );
    m.push("threads", threads as f64);
    m.push(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0.0, |p| p.get() as f64),
    );
    m.push(
        "engine",
        netstats::export::engine_manifest(&crate::engine_features()),
    );
    m.push("wall_clock_secs", wall);
    let mut c = Manifest::new();
    push_counts(&mut c, ranked);
    c.push("simulated", report.rows.len() as f64);
    m.push("counters", ManifestValue::Object(c));
    if let Some(stats) = report.cache {
        m.push("cache", cache_manifest(stats));
    }
    m
}
