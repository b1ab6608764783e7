//! Runs the complete reproduction in one pass and writes every artifact
//! to the output directory:
//!
//! * `table1.csv`, `table2.csv` — the cost-model tables;
//! * `fig5_<pattern>.csv`, `fig6_<pattern>.csv` — the CNF panels;
//! * `fig7_<pattern>.csv` — the absolute-unit panels;
//! * `saturation.csv` — saturation summary of every (config, pattern);
//! * `report.md` — a human-readable digest;
//! * a `*.manifest.json` run manifest next to each CSV.
//!
//! Because the load sweeps of Figures 5 and 6 are subsets of Figure 7's
//! (identical seeds, identical simulations), everything is measured in a
//! single collection pass: 5 configurations x 4 patterns x 20 loads.
//!
//! All tables, sweeps and the gnuplot script come from the shared
//! helpers in the `bench` library (the same ones the per-artifact
//! binaries use); the CSV bytes are identical to what the pre-shared
//! implementation wrote.

use bench::{
    absolute_table, cnf_table, gnuplot_script, paper_patterns, run_manifest, run_panel,
    saturation_table, table1_table, table2_table, write_artifact, Options, PanelSeries,
};
use netsim::scenario::{paper_scenarios, Scenario};
use netstats::Table;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let opts = Options::from_args();
    let len = opts.run_length();
    let specs = paper_scenarios();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# Reproduction run ({} cycles, warm-up {})\n",
        len.total, len.warmup
    );

    // Tables 1 and 2 (compact presentation, unrounded).
    let table_start = Instant::now();
    let t1 = table1_table(false);
    let t2 = table2_table(false);
    let table_secs = table_start.elapsed().as_secs_f64();
    write_artifact(
        &t1,
        &opts.out_dir,
        "table1.csv",
        &run_manifest("repro_all", "table1.csv", &opts, &[], None, &[], table_secs),
    );
    write_artifact(
        &t2,
        &opts.out_dir,
        "table2.csv",
        &run_manifest("repro_all", "table2.csv", &opts, &[], None, &[], table_secs),
    );
    let _ = writeln!(report, "## Table 1\n\n```\n{}```\n", t1.to_pretty());
    let _ = writeln!(report, "## Table 2\n\n```\n{}```\n", t2.to_pretty());

    // One collection pass for Figures 5, 6, 7.
    let tree_idx = [2usize, 3, 4]; // tree entries within paper_scenarios()
    let cube_idx = [0usize, 1];
    let mut sat_all = Table::with_columns([
        "pattern",
        "configuration",
        "saturation_offered",
        "sustained_accepted",
        "stability",
    ]);
    let run_start = Instant::now();
    for (pattern, panels) in paper_patterns() {
        eprintln!("collecting {} traffic...", pattern.name());
        let pass_start = Instant::now();
        let series = run_panel(&specs, pattern, len, opts.seed_salt());
        let pass_secs = pass_start.elapsed().as_secs_f64();

        let slice = |idx: &[usize]| -> Vec<PanelSeries> {
            idx.iter()
                .map(|&i| PanelSeries {
                    label: series[i].label.clone(),
                    offered: series[i].offered.clone(),
                    outcomes: series[i].outcomes.clone(),
                })
                .collect()
        };
        let slice_specs =
            |idx: &[usize]| -> Vec<Scenario> { idx.iter().map(|&i| specs[i].clone()).collect() };

        let tree_series = slice(&tree_idx);
        let cube_series = slice(&cube_idx);
        let fig5 = format!("fig5_{}.csv", pattern.name());
        write_artifact(
            &cnf_table(&tree_series),
            &opts.out_dir,
            &fig5,
            &run_manifest(
                "repro_all",
                &fig5,
                &opts,
                &slice_specs(&tree_idx),
                Some(pattern),
                &tree_series,
                pass_secs,
            ),
        );
        let fig6 = format!("fig6_{}.csv", pattern.name());
        write_artifact(
            &cnf_table(&cube_series),
            &opts.out_dir,
            &fig6,
            &run_manifest(
                "repro_all",
                &fig6,
                &opts,
                &slice_specs(&cube_idx),
                Some(pattern),
                &cube_series,
                pass_secs,
            ),
        );
        let fig7 = format!("fig7_{}.csv", pattern.name());
        write_artifact(
            &absolute_table(&series, &specs),
            &opts.out_dir,
            &fig7,
            &run_manifest(
                "repro_all",
                &fig7,
                &opts,
                &specs,
                Some(pattern),
                &series,
                pass_secs,
            ),
        );

        let sat = saturation_table(&series);
        let _ = writeln!(
            report,
            "## Figure 5/6/7 {panels}) {}\n\n```\n{}```\n",
            pattern.title(),
            sat.to_pretty()
        );
        for row in &sat.rows {
            let mut r = vec![netstats::Cell::Text(pattern.name().into())];
            r.extend(row.iter().cloned());
            sat_all.push_row(r);
        }
    }
    write_artifact(
        &sat_all,
        &opts.out_dir,
        "saturation.csv",
        &run_manifest(
            "repro_all",
            "saturation.csv",
            &opts,
            &specs,
            None,
            &[],
            run_start.elapsed().as_secs_f64(),
        ),
    );

    std::fs::write(opts.out_dir.join("report.md"), &report).expect("report.md");
    std::fs::write(opts.out_dir.join("plot.gp"), gnuplot_script()).expect("plot.gp");
    println!("{report}");
    eprintln!("all artifacts written to {}", opts.out_dir.display());
    eprintln!(
        "plot with: cd {} && gnuplot plot.gp",
        opts.out_dir.display()
    );
}
