//! Dependency-free CSV and JSON emitters for benchmark output.
//!
//! The benchmark harness writes one file per paper artifact (table or
//! figure panel). The data is flat and tabular, so a small hand-rolled
//! writer keeps the workspace free of serialization dependencies while
//! producing files that load directly into gnuplot/pandas.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// An in-memory table: named columns of `f64` plus an optional string
/// key column (e.g. the algorithm label per row).
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows; each must have `columns.len()` cells.
    pub rows: Vec<Vec<Cell>>,
}

/// A table cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// Numeric cell, rendered with up to 6 significant decimals.
    Num(f64),
    /// Text cell.
    Text(String),
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Num(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Text(v.to_string())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Self {
        Cell::Text(v)
    }
}

impl Table {
    /// Create a table with the given column headers.
    pub fn with_columns<S: Into<String>>(cols: impl IntoIterator<Item = S>) -> Self {
        Table {
            columns: cols.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the column count.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Render as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut buf = Vec::new();
        self.write_csv(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("cells and columns are UTF-8")
    }

    /// Stream the bytes of [`Table::to_csv`] into `out`, one write per
    /// row (hand it a buffered writer for large tables).
    pub fn write_csv(&self, out: &mut impl io::Write) -> io::Result<()> {
        let header: Vec<String> = self.columns.iter().map(|c| csv_escape(c)).collect();
        writeln!(out, "{}", header.join(","))?;
        for row in &self.rows {
            let line = row
                .iter()
                .map(|c| match c {
                    Cell::Num(v) => format_num(*v),
                    Cell::Text(s) => csv_escape(s),
                })
                .collect::<Vec<_>>()
                .join(",");
            writeln!(out, "{line}")?;
        }
        Ok(())
    }

    /// Render as a JSON array of objects keyed by column name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("  {");
            for (j, (col, cell)) in self.columns.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: ", json_string(col));
                match cell {
                    Cell::Num(v) => {
                        if v.is_finite() {
                            let _ = write!(out, "{}", format_num(*v));
                        } else {
                            out.push_str("null");
                        }
                    }
                    Cell::Text(s) => out.push_str(&json_string(s)),
                }
            }
            out.push('}');
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out
    }

    /// Render as an aligned, human-readable text table.
    pub fn to_pretty(&self) -> String {
        let render = |c: &Cell| match c {
            Cell::Num(v) => format_num(*v),
            Cell::Text(s) => s.clone(),
        };
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(render(cell).len());
            }
        }
        let mut out = String::new();
        for (w, col) in widths.iter().zip(&self.columns) {
            let _ = write!(out, "{col:>w$}  ");
        }
        out.push('\n');
        for (w, _) in widths.iter().zip(&self.columns) {
            let _ = write!(out, "{:->w$}  ", "");
        }
        out.push('\n');
        for row in &self.rows {
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(out, "{:>w$}  ", render(cell));
            }
            out.push('\n');
        }
        out
    }
}

/// A value inside a [`Manifest`].
#[derive(Clone, Debug, PartialEq)]
pub enum ManifestValue {
    /// Numeric value (rendered like table cells; non-finite → `null`).
    Num(f64),
    /// String value.
    Text(String),
    /// Boolean value.
    Bool(bool),
    /// Homogeneous or mixed list.
    List(Vec<ManifestValue>),
    /// Nested object.
    Object(Manifest),
}

impl From<f64> for ManifestValue {
    fn from(v: f64) -> Self {
        ManifestValue::Num(v)
    }
}

impl From<&str> for ManifestValue {
    fn from(v: &str) -> Self {
        ManifestValue::Text(v.to_string())
    }
}

impl From<String> for ManifestValue {
    fn from(v: String) -> Self {
        ManifestValue::Text(v)
    }
}

impl From<bool> for ManifestValue {
    fn from(v: bool) -> Self {
        ManifestValue::Bool(v)
    }
}

impl From<Manifest> for ManifestValue {
    fn from(v: Manifest) -> Self {
        ManifestValue::Object(v)
    }
}

impl<T: Into<ManifestValue>> From<Vec<T>> for ManifestValue {
    fn from(v: Vec<T>) -> Self {
        ManifestValue::List(v.into_iter().map(Into::into).collect())
    }
}

/// An ordered key–value document describing one run artifact: which
/// scenario produced it, with what seed and run length, on which engine
/// build, and what came out. Rendered as pretty-printed JSON with keys
/// in insertion order, so manifests diff cleanly across runs.
///
/// Like [`Table`], this is a dependency-free writer: the benchmark
/// harness emits one `*.manifest.json` next to each CSV artifact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Manifest {
    entries: Vec<(String, ManifestValue)>,
}

impl Manifest {
    /// An empty manifest.
    pub fn new() -> Self {
        Manifest::default()
    }

    /// Append a key–value pair (keys keep insertion order; duplicate
    /// keys are a caller bug and render as duplicate JSON keys).
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<ManifestValue>) -> &mut Self {
        self.entries.push((key.into(), value.into()));
        self
    }

    /// Number of top-level entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the manifest has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render as pretty-printed JSON (2-space indent, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        render_object(self, 0, &mut out);
        out.push('\n');
        out
    }
}

fn render_value(v: &ManifestValue, indent: usize, out: &mut String) {
    match v {
        ManifestValue::Num(n) => {
            if n.is_finite() {
                out.push_str(&format_num(*n));
            } else {
                out.push_str("null");
            }
        }
        ManifestValue::Text(s) => out.push_str(&json_string(s)),
        ManifestValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        ManifestValue::List(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&"  ".repeat(indent + 1));
                render_value(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        ManifestValue::Object(m) => render_object(m, indent, out),
    }
}

fn render_object(m: &Manifest, indent: usize, out: &mut String) {
    if m.entries.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    for (i, (key, value)) in m.entries.iter().enumerate() {
        out.push_str(&"  ".repeat(indent + 1));
        let _ = write!(out, "{}: ", json_string(key));
        render_value(value, indent + 1, out);
        if i + 1 < m.entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&"  ".repeat(indent));
    out.push('}');
}

/// The `schema` tag of a run manifest. Version 1 is the historical
/// format; version 2 adds a `telemetry` object and is emitted **only**
/// when a run actually recorded telemetry, so untraced manifests stay
/// byte-identical to version 1.
pub fn run_manifest_schema(with_telemetry: bool) -> &'static str {
    run_manifest_schema_tag(with_telemetry, false)
}

/// The `schema` tag of a run manifest, fault plane included. Version 3
/// adds a `faults` object plus delivered/dropped/unroutable counters
/// and is emitted **only** when a fault plan was attached, so healthy
/// manifests stay byte-identical to versions 1/2 regardless of the
/// fault machinery existing.
pub fn run_manifest_schema_tag(with_telemetry: bool, with_faults: bool) -> &'static str {
    if with_faults {
        "netperf-run-manifest/3"
    } else if with_telemetry {
        "netperf-run-manifest/2"
    } else {
        "netperf-run-manifest/1"
    }
}

/// The shared opening of every run manifest: `schema`, `generator`,
/// `artifact`, `quick`, in that byte-stable order. Both the bench
/// panel helpers and the `netperf` CLI start from this, so the cache
/// layer has a single canonical serializer to key on.
pub fn run_manifest_preamble(
    schema: &str,
    generator: &str,
    artifact: &str,
    quick: bool,
) -> Manifest {
    let mut m = Manifest::new();
    m.push("schema", schema);
    m.push("generator", generator);
    m.push("artifact", artifact);
    m.push("quick", quick);
    m
}

/// The `engine` object of a run manifest: one boolean per engine build
/// feature, in the order given (callers pass `netsim::engine_features()`).
pub fn engine_manifest(features: &[(&str, bool)]) -> Manifest {
    let mut m = Manifest::new();
    for &(feature, enabled) in features {
        m.push(feature, enabled);
    }
    m
}

/// The `counters` object of a run manifest: the three aggregate packet
/// counters every generator records. Returned as a [`Manifest`] so
/// callers can append extra counters (e.g. fault-plane drop accounting)
/// before attaching it.
pub fn counters_manifest(
    simulations: f64,
    created_packets: f64,
    delivered_packets: f64,
) -> Manifest {
    let mut m = Manifest::new();
    m.push("simulations", simulations);
    m.push("created_packets", created_packets);
    m.push("delivered_packets", delivered_packets);
    m
}

/// Write a manifest as JSON to `path`, creating parent directories.
pub fn write_manifest(manifest: &Manifest, path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, manifest.to_json())
}

/// The canonical byte-stable number rendering shared by every CSV and
/// manifest artifact (integers without decimals, up to six trimmed
/// decimal digits otherwise). Public so the result cache can store
/// pre-rendered cells that are byte-identical to a fresh render.
pub fn format_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v:.6}");
        // Trim trailing zeros but keep at least one decimal digit.
        let trimmed = s.trim_end_matches('0');
        let trimmed = if trimmed.ends_with('.') {
            &s[..trimmed.len() + 1]
        } else {
            trimmed
        };
        trimmed.to_string()
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write a table as CSV to `path`, creating parent directories.
pub fn write_csv(table: &Table, path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, table.to_csv())
}

/// Write a table as JSON to `path`, creating parent directories.
pub fn write_json(table: &Table, path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, table.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::with_columns(["alg", "offered", "accepted"]);
        t.push_row(vec!["duato".into(), 0.5.into(), 0.5.into()]);
        t.push_row(vec!["det, v2".into(), 0.75.into(), 0.62.into()]);
        t
    }

    #[test]
    fn csv_rendering() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("alg,offered,accepted"));
        assert_eq!(lines.next(), Some("duato,0.5,0.5"));
        assert_eq!(lines.next(), Some("\"det, v2\",0.75,0.62"));
    }

    #[test]
    fn json_rendering() {
        let json = sample().to_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"alg\": \"duato\""));
        assert!(json.contains("\"offered\": 0.75"));
        assert!(json.trim_end().ends_with(']'));
    }

    #[test]
    fn pretty_alignment() {
        let p = sample().to_pretty();
        let lines: Vec<&str> = p.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("accepted"));
        assert!(lines[1].contains("---"));
    }

    #[test]
    fn integers_render_without_decimals() {
        assert_eq!(format_num(42.0), "42");
        assert_eq!(format_num(0.5), "0.5");
        assert_eq!(format_num(1.0 / 3.0), "0.333333");
    }

    #[test]
    fn quotes_escaped() {
        assert_eq!(csv_escape("a\"b"), "\"a\"\"b\"");
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\n\"");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("netstats_test_export");
        let path = dir.join("sub/table.csv");
        write_csv(&sample(), &path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, sample().to_csv());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::with_columns(["a", "b"]);
        t.push_row(vec![1.0.into()]);
    }

    #[test]
    fn manifest_schema_versions() {
        assert_eq!(run_manifest_schema(false), "netperf-run-manifest/1");
        assert_eq!(run_manifest_schema(true), "netperf-run-manifest/2");
        assert_eq!(
            run_manifest_schema_tag(false, false),
            "netperf-run-manifest/1"
        );
        assert_eq!(
            run_manifest_schema_tag(true, false),
            "netperf-run-manifest/2"
        );
        // Faults dominate: a traced faulted run is still version 3.
        assert_eq!(
            run_manifest_schema_tag(false, true),
            "netperf-run-manifest/3"
        );
        assert_eq!(
            run_manifest_schema_tag(true, true),
            "netperf-run-manifest/3"
        );
    }

    fn sample_manifest() -> Manifest {
        let mut inner = Manifest::new();
        inner.push("warmup", 2000.0).push("total", 20000.0);
        let mut m = Manifest::new();
        m.push("schema", "netperf-run-manifest/1");
        m.push("quick", false);
        m.push("run_length", inner);
        m.push("patterns", vec!["uniform", "transpose"]);
        m.push("empty", ManifestValue::List(vec![]));
        m.push("nan", f64::NAN);
        m
    }

    #[test]
    fn manifest_renders_ordered_pretty_json() {
        let json = sample_manifest().to_json();
        let expected = r#"{
  "schema": "netperf-run-manifest/1",
  "quick": false,
  "run_length": {
    "warmup": 2000,
    "total": 20000
  },
  "patterns": [
    "uniform",
    "transpose"
  ],
  "empty": [],
  "nan": null
}
"#;
        assert_eq!(json, expected);
    }

    #[test]
    fn manifest_file_roundtrip() {
        let dir = std::env::temp_dir().join("netstats_test_manifest");
        let path = dir.join("sub/run.manifest.json");
        write_manifest(&sample_manifest(), &path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, sample_manifest().to_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_manifest_is_a_valid_object() {
        assert!(Manifest::new().is_empty());
        assert_eq!(Manifest::new().len(), 0);
        assert_eq!(Manifest::new().to_json(), "{}\n");
    }
}
