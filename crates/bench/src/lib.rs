//! Regenerators for every table and figure of the paper.
//!
//! One binary per paper artifact:
//!
//! | Binary     | Artifact | Content |
//! |------------|----------|---------|
//! | `table1`   | Table 1  | Chien-model delays of the two cube routing algorithms |
//! | `table2`   | Table 2  | Chien-model delays of the tree algorithm with 1/2/4 VCs |
//! | `fig5`     | Figure 5 | CNF curves of the 4-ary 4-tree (3 VC variants x 4 patterns) |
//! | `fig6`     | Figure 6 | CNF curves of the 16-ary 2-cube (2 algorithms x 4 patterns) |
//! | `fig7`     | Figure 7 | Absolute comparison of all five configurations (bits/ns, ns) |
//! | `summary`  | §8–11    | Saturation points and headline claims vs the paper's numbers |
//! | `ablation` | —        | Extensions: buffer depth, injection throttle, VC count sweeps |
//! | `fault_sweep` | —     | Degradation panel: accepted load/latency vs fraction of dead links |
//! | `repro_all`| all      | Runs everything above (except `fault_sweep`) and writes `results/` |
//!
//! Every binary accepts `--quick` (shorter, noisier runs for smoke
//! testing), `--seed <salt>` (rerun everything under an independent
//! noise realization; 0, the default, reproduces the committed numbers
//! bit-for-bit) and `--out <dir>` (default `results`). Next to each CSV
//! the binaries write a `<name>.manifest.json` run manifest recording
//! the scenario descriptions, seed salt, run length, engine feature
//! flags, wall-clock time and headline counters of the run that
//! produced it.
//!
//! ## Example
//!
//! The manifest always sits next to its artifact, named by stem:
//!
//! ```
//! use std::path::Path;
//!
//! let m = bench::manifest_path(Path::new("results"), "fault_sweep.csv");
//! assert_eq!(m, Path::new("results/fault_sweep.manifest.json"));
//! ```

#![warn(missing_docs)]

use netsim::scenario::{default_load_grid, sweep_threads, RunLength, Scenario, SeedMode};
use netsim::sim::SimOutcome;
use netstats::export::{Manifest, ManifestValue};
use netstats::{Cell, SweepCurve, Table};
use traffic::Pattern;

pub use netstats::export::{write_csv, write_json, write_manifest};

/// Command-line options shared by all regenerator binaries.
#[derive(Clone, Debug)]
pub struct Options {
    /// Use a short run length (smoke testing) instead of the paper's.
    pub quick: bool,
    /// Output directory for CSV files.
    pub out_dir: std::path::PathBuf,
    /// Seed salt: XOR'd into every derived per-run seed. `None`/0 keeps
    /// the historical (committed) realization.
    pub seed: Option<u64>,
}

impl Options {
    /// Parse from `std::env::args`. Unknown flags abort with usage help.
    pub fn from_args() -> Options {
        let mut opts = Options {
            quick: false,
            out_dir: std::path::PathBuf::from("results"),
            seed: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => opts.quick = true,
                "--out" => {
                    opts.out_dir = args
                        .next()
                        .unwrap_or_else(|| usage("missing directory after --out"))
                        .into();
                }
                "--seed" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("missing value after --seed"));
                    opts.seed = Some(
                        parse_seed(&v).unwrap_or_else(|| usage(&format!("invalid seed {v:?}"))),
                    );
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        opts
    }

    /// The run length implied by the options.
    pub fn run_length(&self) -> RunLength {
        if self.quick {
            RunLength::quick()
        } else {
            RunLength::paper()
        }
    }

    /// The seed salt implied by the options (0 when `--seed` is absent:
    /// bit-identical to the committed artifacts).
    pub fn seed_salt(&self) -> u64 {
        self.seed.unwrap_or(0)
    }
}

/// Parse a decimal or `0x`-prefixed hexadecimal seed.
pub fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: <bin> [--quick] [--seed <salt>] [--out <dir>]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// The measured curves of one configuration under one pattern.
pub struct PanelSeries {
    /// Configuration label (figure legend entry).
    pub label: String,
    /// Offered load grid (fraction of capacity).
    pub offered: Vec<f64>,
    /// Full outcome at each grid point.
    pub outcomes: Vec<SimOutcome>,
}

impl PanelSeries {
    /// The accepted-bandwidth/latency curve in normalized units
    /// (fractions of capacity, cycles) — the CNF presentation of
    /// Figures 5 and 6.
    pub fn cnf_curve(&self) -> SweepCurve {
        let mut c = SweepCurve::new(self.label.clone());
        for (f, o) in self.offered.iter().zip(&self.outcomes) {
            let lat = o.mean_latency_cycles();
            c.push(
                *f,
                o.accepted_fraction,
                if lat.is_nan() { 0.0 } else { lat },
            );
        }
        c
    }
}

/// Run the load sweep of one figure panel: every scenario under `pattern`
/// over the default 5%–100% grid, with the derived per-point seeds
/// XOR'd by `salt` (0 = the committed realization, bit-for-bit).
pub fn run_panel(
    specs: &[Scenario],
    pattern: Pattern,
    len: RunLength,
    salt: u64,
) -> Vec<PanelSeries> {
    let grid = default_load_grid();
    specs
        .iter()
        .map(|spec| {
            eprintln!(
                "  sweeping {} under {} traffic...",
                spec.label(),
                pattern.name()
            );
            let outcomes = spec
                .with_pairs(&[("pattern", pattern.spec())])
                .expect("every paper pattern runs on the paper networks")
                .with_run_length(len)
                .with_seed(SeedMode::Derived { salt })
                .try_sweep_outcomes(&grid)
                .unwrap_or_else(|e| panic!("{} under {}: {e}", spec.label(), pattern.name()));
            PanelSeries {
                label: spec.label().to_string(),
                offered: grid.clone(),
                outcomes,
            }
        })
        .collect()
}

/// Build the CNF table of one figure panel (both graphs: accepted
/// bandwidth and latency, one row per offered-load point, one column
/// pair per configuration).
pub fn cnf_table(series: &[PanelSeries]) -> Table {
    let mut cols = vec!["offered".to_string()];
    for s in series {
        cols.push(format!("accepted[{}]", s.label));
        cols.push(format!("latency_cycles[{}]", s.label));
    }
    let mut t = Table::with_columns(cols);
    let grid = &series[0].offered;
    for (i, &f) in grid.iter().enumerate() {
        let mut row: Vec<Cell> = vec![f.into()];
        for s in series {
            let o = &s.outcomes[i];
            row.push(o.accepted_fraction.into());
            let lat = o.mean_latency_cycles();
            row.push(if lat.is_nan() { 0.0.into() } else { lat.into() });
        }
        t.push_row(row);
    }
    t
}

/// Build the absolute-units table of one Figure 7 panel: traffic in
/// bits/ns and latency in ns, using each configuration's own clock.
pub fn absolute_table(series: &[PanelSeries], specs: &[Scenario]) -> Table {
    assert_eq!(series.len(), specs.len());
    let mut cols = vec!["offered_fraction".to_string()];
    for s in series {
        cols.push(format!("offered_bits_ns[{}]", s.label));
        cols.push(format!("accepted_bits_ns[{}]", s.label));
        cols.push(format!("latency_ns[{}]", s.label));
    }
    let mut t = Table::with_columns(cols);
    let grid = &series[0].offered;
    for (i, &f) in grid.iter().enumerate() {
        let mut row: Vec<Cell> = vec![f.into()];
        for (s, spec) in series.iter().zip(specs) {
            let norm = spec.normalization();
            let o = &s.outcomes[i];
            row.push(norm.fraction_to_bits_per_ns(f).into());
            row.push(norm.fraction_to_bits_per_ns(o.accepted_fraction).into());
            let lat = o.mean_latency_cycles();
            row.push(if lat.is_nan() {
                0.0.into()
            } else {
                norm.cycles_to_ns(lat).into()
            });
        }
        t.push_row(row);
    }
    t
}

/// Saturation analysis of one sweep, measured against the *generated*
/// load (patterns with silent fixed-point nodes — bit reversal and
/// transpose silence 16 of 256 — generate ~6% less than the nominal
/// offered load even at zero congestion, so comparing against the
/// nominal would flag saturation everywhere).
pub struct SaturationSummary {
    /// First offered (nominal) load where accepted < generated, or
    /// `None` if the sweep never saturates.
    pub offered: Option<f64>,
    /// Mean accepted bandwidth at and beyond saturation (or the last
    /// point if never saturated).
    pub sustained: f64,
    /// min/max accepted at and beyond saturation (1.0 = flat).
    pub stability: f64,
}

/// Compute the saturation summary of one panel series.
pub fn saturation_of(s: &PanelSeries, tol: f64) -> SaturationSummary {
    let idx = s.outcomes.iter().position(|o| o.is_saturated(tol));
    match idx {
        None => SaturationSummary {
            offered: None,
            sustained: s
                .outcomes
                .last()
                .map(|o| o.accepted_fraction)
                .unwrap_or(0.0),
            stability: 1.0,
        },
        Some(i) => {
            let tail: Vec<f64> = s.outcomes[i..]
                .iter()
                .map(|o| o.accepted_fraction)
                .collect();
            let sustained = tail.iter().sum::<f64>() / tail.len() as f64;
            let min = tail.iter().copied().fold(f64::INFINITY, f64::min);
            let max = tail.iter().copied().fold(0.0f64, f64::max);
            SaturationSummary {
                offered: Some(s.offered[i]),
                sustained,
                stability: if max > 0.0 { min / max } else { 1.0 },
            }
        }
    }
}

/// Extract the saturation summary of a set of panels: one row per
/// configuration with the saturation offered load, the sustained
/// accepted bandwidth, and the post-saturation stability ratio.
pub fn saturation_table(series: &[PanelSeries]) -> Table {
    let mut t = Table::with_columns([
        "configuration",
        "saturation_offered",
        "sustained_accepted",
        "stability",
    ]);
    for s in series {
        let sat = saturation_of(s, 0.05);
        t.push_row(vec![
            s.label.clone().into(),
            sat.offered.unwrap_or(f64::NAN).into(),
            sat.sustained.into(),
            sat.stability.into(),
        ]);
    }
    t
}

/// The four patterns in the paper's presentation order with the figure
/// panel letters of Figures 5–7.
pub fn paper_patterns() -> [(Pattern, &'static str); 4] {
    [
        (Pattern::Uniform, "ab"),
        (Pattern::Complement, "cd"),
        (Pattern::Transpose, "ef"),
        (Pattern::BitReversal, "gh"),
    ]
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Build Table 1 (Chien delays of the two cube algorithms).
///
/// `detailed` selects the presentation: `false` is the compact
/// unrounded layout `repro_all` has always written (columns
/// `algorithm,T_routing,T_crossbar,T_link,T_clock`); `true` is the
/// `table1` binary's layout with values rounded to the paper's two
/// decimals, the wire class spelled out (`T_link_s`) and the clock
/// bottleneck named.
pub fn table1_table(detailed: bool) -> Table {
    use costmodel::chien::RouterClass;
    let rows = [
        (
            "Det.",
            RouterClass::CubeDeterministic { n: 2, vcs: 4 }.timing(),
        ),
        ("Duato", RouterClass::CubeDuato { n: 2, vcs: 4 }.timing()),
    ];
    if detailed {
        let mut t = Table::with_columns([
            "algorithm",
            "T_routing",
            "T_crossbar",
            "T_link_s",
            "T_clock",
            "bottleneck",
        ]);
        for (name, tm) in rows {
            t.push_row(vec![
                name.into(),
                round2(tm.t_routing_ns).into(),
                round2(tm.t_crossbar_ns).into(),
                round2(tm.t_link_ns).into(),
                round2(tm.clock_ns()).into(),
                tm.bottleneck().into(),
            ]);
        }
        t
    } else {
        let mut t =
            Table::with_columns(["algorithm", "T_routing", "T_crossbar", "T_link", "T_clock"]);
        for (name, tm) in rows {
            t.push_row(vec![
                name.into(),
                tm.t_routing_ns.into(),
                tm.t_crossbar_ns.into(),
                tm.t_link_ns.into(),
                tm.clock_ns().into(),
            ]);
        }
        t
    }
}

/// Build Table 2 (Chien delays of the tree algorithm with 1/2/4 VCs).
///
/// `detailed` selects the presentation exactly as in [`table1_table`].
pub fn table2_table(detailed: bool) -> Table {
    use costmodel::chien::RouterClass;
    let rows = [1usize, 2, 4].map(|v| (v, RouterClass::TreeAdaptive { k: 4, vcs: v }.timing()));
    if detailed {
        let mut t = Table::with_columns([
            "virtual_channels",
            "T_routing",
            "T_crossbar",
            "T_link_m",
            "T_clock",
            "bottleneck",
        ]);
        for (v, tm) in rows {
            t.push_row(vec![
                format!("{v} vc").into(),
                round2(tm.t_routing_ns).into(),
                round2(tm.t_crossbar_ns).into(),
                round2(tm.t_link_ns).into(),
                round2(tm.clock_ns()).into(),
                tm.bottleneck().into(),
            ]);
        }
        t
    } else {
        let mut t = Table::with_columns(["vcs", "T_routing", "T_crossbar", "T_link", "T_clock"]);
        for (v, tm) in rows {
            t.push_row(vec![
                (v as f64).into(),
                tm.t_routing_ns.into(),
                tm.t_crossbar_ns.into(),
                tm.t_link_ns.into(),
                tm.clock_ns().into(),
            ]);
        }
        t
    }
}

/// Build the run manifest written next to one artifact. Records the
/// full scenario descriptions behind the data, the options that shaped
/// the run (seed salt, run length), the engine build flags, wall-clock
/// time, and aggregate packet counters.
pub fn run_manifest(
    generator: &str,
    artifact: &str,
    opts: &Options,
    specs: &[Scenario],
    pattern: Option<Pattern>,
    series: &[PanelSeries],
    wall_secs: f64,
) -> Manifest {
    run_manifest_with_telemetry(
        generator, artifact, opts, specs, pattern, series, wall_secs, None,
    )
}

/// [`run_manifest`] with an optional telemetry block. `None` produces
/// output byte-identical to the historical `netperf-run-manifest/1`
/// format; `Some` bumps the schema tag to `netperf-run-manifest/2` and
/// appends the given object under a `telemetry` key, so only runs that
/// actually recorded telemetry advertise the new schema.
#[allow(clippy::too_many_arguments)]
pub fn run_manifest_with_telemetry(
    generator: &str,
    artifact: &str,
    opts: &Options,
    specs: &[Scenario],
    pattern: Option<Pattern>,
    series: &[PanelSeries],
    wall_secs: f64,
    telemetry: Option<&Manifest>,
) -> Manifest {
    let len = opts.run_length();
    let mut m = netstats::export::run_manifest_preamble(
        netstats::export::run_manifest_schema(telemetry.is_some()),
        generator,
        artifact,
        opts.quick,
    );
    let mut rl = Manifest::new();
    rl.push("warmup", len.warmup as f64);
    rl.push("total", len.total as f64);
    m.push("run_length", rl);
    m.push("seed_salt", format!("0x{:016x}", opts.seed_salt()));
    m.push("threads", sweep_threads() as f64);
    m.push(
        "engine",
        netstats::export::engine_manifest(&netsim::engine_features()),
    );
    if let Some(p) = pattern {
        m.push("pattern", p.name());
    }
    m.push(
        "scenarios",
        ManifestValue::List(
            specs
                .iter()
                .map(|s| ManifestValue::Object(s.manifest()))
                .collect(),
        ),
    );
    m.push("wall_clock_secs", wall_secs);
    m.push(
        "counters",
        netstats::export::counters_manifest(
            series.iter().map(|s| s.outcomes.len()).sum::<usize>() as f64,
            series
                .iter()
                .flat_map(|s| &s.outcomes)
                .map(|o| o.created_packets)
                .sum::<u64>() as f64,
            series
                .iter()
                .flat_map(|s| &s.outcomes)
                .map(|o| o.delivered_packets)
                .sum::<u64>() as f64,
        ),
    );
    if let Some(t) = telemetry {
        m.push("telemetry", t.clone());
    }
    m
}

/// The manifest path for an artifact file: `fig5_uniform.csv` →
/// `fig5_uniform.manifest.json`.
pub fn manifest_path(dir: &std::path::Path, artifact: &str) -> std::path::PathBuf {
    let stem = artifact
        .rsplit_once('.')
        .map(|(s, _)| s)
        .unwrap_or(artifact);
    dir.join(format!("{stem}.manifest.json"))
}

/// Write one artifact (CSV + its run manifest) into `dir`, returning
/// the CSV path. The CSV bytes are unchanged from the pre-manifest
/// harness; the manifest is a new sibling file.
pub fn write_artifact(
    table: &Table,
    dir: &std::path::Path,
    artifact: &str,
    manifest: &Manifest,
) -> std::path::PathBuf {
    let path = dir.join(artifact);
    write_csv(table, &path).unwrap_or_else(|e| panic!("write {artifact}: {e}"));
    write_manifest(manifest, manifest_path(dir, artifact))
        .unwrap_or_else(|e| panic!("write {artifact} manifest: {e}"));
    path
}

/// A gnuplot script rendering all 24 panels of Figures 5-7 from the
/// CSVs into `figures.png` panels (requires gnuplot, not a crate
/// dependency — the CSVs are the primary artifact).
pub fn gnuplot_script() -> String {
    use std::fmt::Write as _;
    let mut s = String::from(
        "set datafile separator ','\nset key autotitle columnhead\nset grid\n\
         set term pngcairo size 1400,900\n",
    );
    for (fig, cols) in [("fig5", 3), ("fig6", 2), ("fig7", 5)] {
        for pat in ["uniform", "complement", "transpose", "bitrev"] {
            let (xlab, aylab, lylab, acol0, lcol0, step) = if fig == "fig7" {
                (
                    "offered (bits/ns)",
                    "accepted (bits/ns)",
                    "latency (ns)",
                    3,
                    4,
                    3,
                )
            } else {
                (
                    "offered (fraction of capacity)",
                    "accepted (fraction)",
                    "latency (cycles)",
                    2,
                    3,
                    2,
                )
            };
            let _ = writeln!(s, "set output '{fig}_{pat}.png'");
            let _ = writeln!(s, "set multiplot layout 1,2 title '{fig} {pat}'");
            let _ = writeln!(s, "set xlabel '{xlab}'; set ylabel '{aylab}'");
            let xcol = if fig == "fig7" {
                "2".to_string()
            } else {
                "1".to_string()
            };
            let mut plots: Vec<String> = Vec::new();
            for i in 0..cols {
                let xc = if fig == "fig7" {
                    format!("{}", 2 + i * step)
                } else {
                    xcol.clone()
                };
                plots.push(format!(
                    "'{fig}_{pat}.csv' using {}:{} with linespoints",
                    xc,
                    acol0 + i * step
                ));
            }
            let _ = writeln!(s, "plot {}", plots.join(", "));
            let _ = writeln!(s, "set xlabel '{xlab}'; set ylabel '{lylab}'");
            let mut plots: Vec<String> = Vec::new();
            for i in 0..cols {
                let xc = if fig == "fig7" {
                    format!("{}", 2 + i * step)
                } else {
                    xcol.clone()
                };
                plots.push(format!(
                    "'{fig}_{pat}.csv' using {}:{} with linespoints",
                    xc,
                    lcol0 + i * step
                ));
            }
            let _ = writeln!(s, "plot {}", plots.join(", "));
            let _ = writeln!(s, "unset multiplot");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnf_table_shape() {
        let specs = [netsim::named("cube-duato-tiny").unwrap()];
        let grid = [0.3, 0.8];
        let outcomes = specs[0].try_sweep_outcomes(&grid).unwrap();
        let series = vec![PanelSeries {
            label: specs[0].label().to_string(),
            offered: grid.to_vec(),
            outcomes,
        }];
        let t = cnf_table(&series);
        assert_eq!(t.columns.len(), 3);
        assert_eq!(t.rows.len(), 2);
        let abs = absolute_table(&series, &specs);
        assert_eq!(abs.columns.len(), 4);
        let sat = saturation_table(&series);
        assert_eq!(sat.rows.len(), 1);

        let opts = Options {
            quick: true,
            out_dir: std::path::PathBuf::from("results"),
            seed: Some(7),
        };
        let m = run_manifest(
            "test",
            "fig6_uniform.csv",
            &opts,
            &specs,
            Some(Pattern::Uniform),
            &series,
            1.25,
        );
        let json = m.to_json();
        for needle in [
            "\"schema\": \"netperf-run-manifest/1\"",
            "\"artifact\": \"fig6_uniform.csv\"",
            "\"seed_salt\": \"0x0000000000000007\"",
            "\"pattern\": \"uniform\"",
            "\"label\": \"cube, Duato\"",
            "\"simulations\": 2",
        ] {
            assert!(json.contains(needle), "manifest missing {needle}:\n{json}");
        }
    }

    /// Satellite guard: the untraced manifest must stay byte-identical
    /// to the historical `netperf-run-manifest/1` rendering, and the
    /// telemetry variant must differ only by the schema tag and a
    /// trailing `telemetry` object. Parameterized on `sweep_threads()`
    /// and the engine feature flags so it holds on any build/host.
    #[test]
    fn manifest_telemetry_golden_bytes() {
        let opts = Options {
            quick: true,
            out_dir: std::path::PathBuf::from("results"),
            seed: None,
        };
        let len = opts.run_length();
        let mut engine_block = String::new();
        let features = netsim::engine_features();
        for (i, (feature, enabled)) in features.iter().enumerate() {
            engine_block.push_str(&format!(
                "    \"{feature}\": {enabled}{}\n",
                if i + 1 < features.len() { "," } else { "" }
            ));
        }
        let body = format!(
            "  \"generator\": \"golden\",\n  \"artifact\": \"golden.csv\",\n  \"quick\": true,\n  \"run_length\": {{\n    \"warmup\": {},\n    \"total\": {}\n  }},\n  \"seed_salt\": \"0x0000000000000000\",\n  \"threads\": {},\n  \"engine\": {{\n{engine_block}  }},\n  \"pattern\": \"uniform\",\n  \"scenarios\": [],\n  \"wall_clock_secs\": 0.5,\n  \"counters\": {{\n    \"simulations\": 0,\n    \"created_packets\": 0,\n    \"delivered_packets\": 0\n  }}",
            len.warmup, len.total, sweep_threads(),
        );

        let plain = run_manifest(
            "golden",
            "golden.csv",
            &opts,
            &[],
            Some(Pattern::Uniform),
            &[],
            0.5,
        );
        let expected_plain = format!("{{\n  \"schema\": \"netperf-run-manifest/1\",\n{body}\n}}\n");
        assert_eq!(plain.to_json(), expected_plain);

        let mut tele = Manifest::new();
        tele.push("stride", 100.0);
        tele.push("record_events", false);
        let traced = run_manifest_with_telemetry(
            "golden",
            "golden.csv",
            &opts,
            &[],
            Some(Pattern::Uniform),
            &[],
            0.5,
            Some(&tele),
        );
        let expected_traced = format!(
            "{{\n  \"schema\": \"netperf-run-manifest/2\",\n{body},\n  \"telemetry\": {{\n    \"stride\": 100,\n    \"record_events\": false\n  }}\n}}\n"
        );
        assert_eq!(traced.to_json(), expected_traced);
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0xDEAD"), Some(0xDEAD));
        assert_eq!(parse_seed("0Xdead"), Some(0xDEAD));
        assert_eq!(parse_seed("nope"), None);
        assert_eq!(parse_seed(""), None);
    }

    #[test]
    fn table_builders_have_both_presentations() {
        let compact = table1_table(false);
        assert_eq!(
            compact.columns,
            vec!["algorithm", "T_routing", "T_crossbar", "T_link", "T_clock"]
        );
        let detailed = table1_table(true);
        assert_eq!(detailed.columns.last().unwrap(), "bottleneck");
        // The paper's headline clocks survive the rounding.
        assert_eq!(detailed.rows[0][4], Cell::Num(6.34));
        assert_eq!(detailed.rows[1][4], Cell::Num(7.8));

        let t2 = table2_table(true);
        assert_eq!(t2.rows.len(), 3);
        assert_eq!(t2.rows[0][0], Cell::Text("1 vc".into()));
        assert_eq!(table2_table(false).columns[0], "vcs");
    }

    #[test]
    fn manifest_paths_substitute_the_extension() {
        let dir = std::path::Path::new("results");
        assert_eq!(
            manifest_path(dir, "fig5_uniform.csv"),
            dir.join("fig5_uniform.manifest.json")
        );
        assert_eq!(manifest_path(dir, "noext"), dir.join("noext.manifest.json"));
    }

    #[test]
    fn gnuplot_script_covers_all_panels() {
        let s = gnuplot_script();
        for fig in ["fig5", "fig6", "fig7"] {
            for pat in ["uniform", "complement", "transpose", "bitrev"] {
                assert!(s.contains(&format!("{fig}_{pat}.png")));
                assert!(s.contains(&format!("{fig}_{pat}.csv")));
            }
        }
    }
}
