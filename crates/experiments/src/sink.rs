//! Structured results sink: canonical JSON and CSV reports per grid,
//! and the console table rendered from the same report.
//!
//! Every driver builds one [`StructuredReport`] per result, prints it to
//! stdout as a table ([`to_text`]) *and* routes it through this module,
//! so the full evaluation leaves diffable machine-readable artifacts
//! behind (like the committed bench baselines) and the console shows the
//! same columns they hold. The serializations are canonical:
//!
//! * JSON keys are written in a fixed order (`schema`, `name`, `title`,
//!   `columns`, `rows`) with one row per line;
//! * floats use Rust's shortest round-trip formatting, which is
//!   deterministic and platform-independent;
//! * a given grid therefore produces byte-identical reports run-to-run,
//!   cold-start or warm-start — pinned by the golden-file and
//!   engine-determinism tests.
//!
//! The sink directory is controlled by the `TIFS_RESULTS` environment
//! variable: unset writes under [`DEFAULT_RESULTS_DIR`], a path selects
//! that directory, and `off` / `0` / `none` disables report emission for
//! hermetic runs.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::engine::GridResults;

/// Environment variable selecting the report directory (`off` / `0` /
/// `none` disables emission).
pub const RESULTS_ENV: &str = "TIFS_RESULTS";

/// Default report directory, relative to the working directory.
pub const DEFAULT_RESULTS_DIR: &str = "results";

/// JSON schema version stamped into every report.
pub const SCHEMA_VERSION: u32 = 1;

/// One typed report cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// Missing / not-applicable.
    Null,
    /// Free text (workload and system names).
    Text(String),
    /// Exact integer counter.
    Int(i64),
    /// Measured quantity.
    Num(f64),
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::Num(v)
    }
}

impl From<i64> for Cell {
    fn from(v: i64) -> Cell {
        Cell::Int(v)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

/// A tabular report: named columns over typed rows. The canonical
/// structured form of one grid run or trace analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct StructuredReport {
    /// File-stem identifier (`fig13`, `table1`, `ablations`, ...).
    pub name: String,
    /// Human-readable one-line description.
    pub title: String,
    /// Column names, in presentation order.
    pub columns: Vec<String>,
    /// Rows of cells, one per `columns` entry.
    pub rows: Vec<Vec<Cell>>,
    /// Summary lines printed under the console table (averages, the
    /// paper's quoted values). [`to_json`] and [`to_csv`] leave them out,
    /// so the serialized bytes depend on the rows alone.
    pub notes: Vec<String>,
}

impl StructuredReport {
    /// An empty report with the given identity and columns.
    pub fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        columns: impl IntoIterator<Item = impl Into<String>>,
    ) -> StructuredReport {
        StructuredReport {
            name: name.into(),
            title: title.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the column count — a
    /// malformed report must fail at construction, not at diff time.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "report '{}': row width {} != {} columns",
            self.name,
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Appends one summary line for the console table.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

/// Canonical float formatting: shortest round-trip decimal; non-finite
/// values become JSON `null` / empty CSV.
fn fmt_num(v: f64) -> Option<String> {
    if v.is_finite() {
        Some(format!("{v}"))
    } else {
        None
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_cell(cell: &Cell) -> String {
    match cell {
        Cell::Null => "null".to_string(),
        Cell::Text(s) => format!("\"{}\"", json_escape(s)),
        Cell::Int(v) => v.to_string(),
        Cell::Num(v) => fmt_num(*v).unwrap_or_else(|| "null".to_string()),
    }
}

/// Serializes a report as canonical JSON: fixed key order, one row per
/// line, trailing newline.
pub fn to_json(report: &StructuredReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"name\": \"{}\",", json_escape(&report.name));
    let _ = writeln!(out, "  \"title\": \"{}\",", json_escape(&report.title));
    let cols: Vec<String> = report
        .columns
        .iter()
        .map(|c| format!("\"{}\"", json_escape(c)))
        .collect();
    let _ = writeln!(out, "  \"columns\": [{}],", cols.join(", "));
    out.push_str("  \"rows\": [");
    for (i, row) in report.rows.iter().enumerate() {
        let cells: Vec<String> = row.iter().map(json_cell).collect();
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(out, "    [{}]", cells.join(", "));
    }
    if report.rows.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

fn csv_cell(cell: &Cell) -> String {
    let raw = match cell {
        Cell::Null => String::new(),
        Cell::Text(s) => s.clone(),
        Cell::Int(v) => v.to_string(),
        Cell::Num(v) => fmt_num(*v).unwrap_or_default(),
    };
    if raw.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw
    }
}

/// Serializes a report as RFC-4180-style CSV (header row first).
pub fn to_csv(report: &StructuredReport) -> String {
    let mut out = String::new();
    let header: Vec<String> = report
        .columns
        .iter()
        .map(|c| csv_cell(&Cell::Text(c.clone())))
        .collect();
    let _ = writeln!(out, "{}", header.join(","));
    for row in &report.rows {
        let cells: Vec<String> = row.iter().map(csv_cell).collect();
        let _ = writeln!(out, "{}", cells.join(","));
    }
    out
}

/// The console form of a cell: integers whole, measured quantities with
/// three decimals, missing and non-finite values as `-`.
fn text_cell(cell: &Cell) -> String {
    match cell {
        Cell::Text(s) => s.clone(),
        Cell::Int(v) => v.to_string(),
        Cell::Num(v) if v.is_finite() => format!("{v:.3}"),
        Cell::Null | Cell::Num(_) => "-".to_string(),
    }
}

/// Right-aligns `cells` in columns of `widths`, two spaces apart.
fn aligned(cells: &[String], widths: &[usize]) -> String {
    let line: String = cells
        .iter()
        .zip(widths)
        .map(|(cell, &width)| format!("{cell:>width$}  "))
        .collect();
    format!("{}\n", line.trim_end())
}

/// Renders a report as the console table: the title, the rows under the
/// report's own column names (right-aligned, each column as wide as its
/// widest entry), then its notes.
pub fn to_text(report: &StructuredReport) -> String {
    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|row| row.iter().map(text_cell).collect())
        .collect();
    let mut widths: Vec<usize> = report.columns.iter().map(String::len).collect();
    for row in &rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let mut out = format!("{}\n", report.title);
    out.push_str(&aligned(&report.columns, &widths));
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in &rows {
        out.push_str(&aligned(row, &widths));
    }
    for note in &report.notes {
        out.push_str(note);
        out.push('\n');
    }
    out
}

/// The canonical per-grid report: one row per (workload × system) cell
/// with the headline counters every comparison needs. This is what
/// "every `ExperimentGrid` run can emit a report" means concretely — any
/// grid, figure-specific or ad hoc, serializes through here.
pub fn grid_report(
    name: impl Into<String>,
    title: impl Into<String>,
    results: &GridResults,
) -> StructuredReport {
    let mut report = StructuredReport::new(
        name,
        title,
        [
            "workload",
            "system",
            "ipc",
            "coverage",
            "cycles",
            "retired",
            "mispredicts",
        ],
    );
    for row in results.iter_rows() {
        for (system, r) in row.iter() {
            report.push_row(vec![
                Cell::from(row.workload()),
                Cell::Text(system.name()),
                Cell::Num(r.aggregate_ipc()),
                Cell::Num(r.coverage()),
                Cell::from(r.cycles),
                Cell::from(r.total_retired()),
                Cell::from(r.cores.iter().map(|c| c.mispredicts).sum::<u64>()),
            ]);
        }
    }
    report
}

/// A directory reports are written into (`<dir>/<name>.json` + `.csv`).
#[derive(Debug)]
pub struct ResultsSink {
    dir: PathBuf,
}

impl ResultsSink {
    /// Opens (creating if needed) a sink at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<ResultsSink> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultsSink { dir })
    }

    /// Opens the sink selected by [`RESULTS_ENV`]: `None` when disabled
    /// (`off` / `0` / `none` / empty) or when the directory cannot be
    /// created (warned on stderr); otherwise the named directory,
    /// defaulting to [`DEFAULT_RESULTS_DIR`].
    pub fn from_env() -> Option<ResultsSink> {
        // tifs-lint: allow(wall-clock) — RESULTS_ENV is the documented
        // TIFS_RESULTS knob; it selects where results land, never what
        // they contain.
        let dir = match std::env::var(RESULTS_ENV) {
            Ok(v) if matches!(v.as_str(), "off" | "0" | "none" | "") => return None,
            Ok(v) => PathBuf::from(v),
            Err(_) => PathBuf::from(DEFAULT_RESULTS_DIR),
        };
        match ResultsSink::new(&dir) {
            Ok(sink) => Some(sink),
            Err(e) => {
                eprintln!(
                    "[results] cannot open {}: {e}; report emission disabled",
                    dir.display()
                );
                None
            }
        }
    }

    /// The sink directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes `report` as `<name>.json` and `<name>.csv`, returning both
    /// paths.
    pub fn write(&self, report: &StructuredReport) -> io::Result<(PathBuf, PathBuf)> {
        let json = self.dir.join(format!("{}.json", report.name));
        let csv = self.dir.join(format!("{}.csv", report.name));
        std::fs::write(&json, to_json(report))?;
        std::fs::write(&csv, to_csv(report))?;
        Ok((json, csv))
    }
}

/// Writes `report` through the environment-selected sink, logging where
/// it landed (the driver's one-line integration point).
pub fn publish(report: &StructuredReport) {
    if let Some(sink) = ResultsSink::from_env() {
        match sink.write(report) {
            Ok((json, _csv)) => eprintln!("[results] wrote {}", json.display()),
            Err(e) => eprintln!("[results] failed to write {}: {e}", report.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StructuredReport {
        let mut r = StructuredReport::new("t", "a \"quoted\" title", ["name", "n", "x"]);
        r.push_row(vec![Cell::from("a,b"), Cell::from(3u64), Cell::Num(0.5)]);
        r.push_row(vec![Cell::from("plain"), Cell::Int(-1), Cell::Null]);
        r
    }

    #[test]
    fn json_is_canonical_and_escaped() {
        let json = to_json(&sample());
        assert_eq!(
            json,
            "{\n  \"schema\": 1,\n  \"name\": \"t\",\n  \"title\": \"a \\\"quoted\\\" title\",\n  \"columns\": [\"name\", \"n\", \"x\"],\n  \"rows\": [\n    [\"a,b\", 3, 0.5],\n    [\"plain\", -1, null]\n  ]\n}\n"
        );
    }

    #[test]
    fn empty_report_serializes() {
        let r = StructuredReport::new("e", "empty", ["a"]);
        assert_eq!(
            to_json(&r),
            "{\n  \"schema\": 1,\n  \"name\": \"e\",\n  \"title\": \"empty\",\n  \"columns\": [\"a\"],\n  \"rows\": []\n}\n"
        );
        assert_eq!(to_csv(&r), "a\n");
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        let csv = to_csv(&sample());
        assert_eq!(csv, "name,n,x\n\"a,b\",3,0.5\nplain,-1,\n");
    }

    #[test]
    fn floats_format_shortest_roundtrip() {
        assert_eq!(fmt_num(1.0).unwrap(), "1");
        assert_eq!(fmt_num(0.1).unwrap(), "0.1");
        assert_eq!(fmt_num(1.0 / 3.0).unwrap(), "0.3333333333333333");
        assert_eq!(fmt_num(f64::NAN), None);
        assert_eq!(fmt_num(f64::INFINITY), None);
    }

    #[test]
    fn text_numbers_follow_one_rule() {
        assert_eq!(text_cell(&Cell::from("DSS Qry2")), "DSS Qry2");
        assert_eq!(text_cell(&Cell::Int(-7)), "-7");
        assert_eq!(text_cell(&Cell::from(1_093_936u64)), "1093936");
        assert_eq!(text_cell(&Cell::Num(2.0 / 3.0)), "0.667");
        assert_eq!(text_cell(&Cell::Num(156.0)), "156.000");
        assert_eq!(text_cell(&Cell::Null), "-");
        assert_eq!(text_cell(&Cell::Num(f64::NAN)), "-");
        assert_eq!(text_cell(&Cell::Num(f64::NEG_INFINITY)), "-");
    }

    #[test]
    fn table_alignment() {
        // `workload` is wider than its cells, `v` narrower than `12345`:
        // each column takes its widest entry and right-aligns the rest.
        let mut r = StructuredReport::new("t", "T", ["workload", "v"]);
        r.push_row(vec![Cell::from("a"), Cell::Int(12345)]);
        r.push_row(vec![Cell::from("longer"), Cell::Num(2.0)]);
        assert_eq!(
            to_text(&r),
            "T\nworkload      v\n-----------------\n       a  12345\n  longer  2.000\n"
        );
    }

    #[test]
    fn notes_print_after_the_table() {
        let mut r = sample();
        r.push_note("first note");
        r.push_note("second");
        assert_eq!(
            to_text(&r),
            "a \"quoted\" title\n name   n      x\n------------------\n  a,b   3  0.500\nplain  -1      -\n\
             first note\nsecond\n"
        );
    }

    #[test]
    fn notes_leave_json_and_csv_unchanged() {
        let mut r = sample();
        r.push_note("average: 0.5");
        assert_eq!(to_json(&r), to_json(&sample()));
        assert_eq!(to_csv(&r), to_csv(&sample()));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut r = StructuredReport::new("t", "t", ["a", "b"]);
        r.push_row(vec![Cell::Null]);
    }

    #[test]
    fn sink_writes_both_files() {
        let dir = std::env::temp_dir().join(format!("tifs-sink-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = ResultsSink::new(&dir).unwrap();
        let (json, csv) = sink.write(&sample()).unwrap();
        assert_eq!(std::fs::read_to_string(&json).unwrap(), to_json(&sample()));
        assert_eq!(std::fs::read_to_string(&csv).unwrap(), to_csv(&sample()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
