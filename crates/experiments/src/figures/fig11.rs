//! Figure 11 — TIFS predictor coverage as a function of IML storage
//! capacity (perfect dedicated Index Table, functional model).

use tifs_core::{entries_per_core_for_kb, FunctionalTifs};

use crate::engine::{Lab, ANALYSIS_CORES};
use crate::sink::{Cell, StructuredReport};

/// Swept total IML storage budgets in kilobytes (log-ish scale, as the
/// paper's 10–1000 KB x-axis).
pub const STORAGE_KB: [f64; 8] = [10.0, 20.0, 40.0, 80.0, 156.0, 320.0, 640.0, 1000.0];

/// Coverage curve of one workload.
#[derive(Clone, Debug)]
pub struct CapacityCurve {
    /// Workload name.
    pub workload: String,
    /// (total KB, coverage) points.
    pub points: Vec<(f64, f64)>,
}

/// Runs the Figure 11 sweep (4 cores, shared index) over the lab's
/// cached miss traces.
pub fn run_on(lab: &Lab) -> Vec<CapacityCurve> {
    lab.analyze(|ctx| {
        let traces = ctx.miss_traces();
        let points = STORAGE_KB
            .iter()
            .map(|&kb| {
                let entries = entries_per_core_for_kb(kb, ANALYSIS_CORES)
                    .max(tifs_core::ENTRIES_PER_L2_BLOCK);
                let mut f = FunctionalTifs::new(ANALYSIS_CORES, Some(entries));
                f.process_interleaved(traces);
                (kb, f.report().coverage())
            })
            .collect();
        CapacityCurve {
            workload: ctx.name(),
            points,
        }
    })
}

/// Canonical structured form (one coverage column per storage budget).
pub fn structured(results: &[CapacityCurve]) -> StructuredReport {
    let mut columns = vec!["workload".to_string()];
    columns.extend(STORAGE_KB.iter().map(|kb| format!("coverage_at_{kb:.0}kb")));
    let mut report = StructuredReport::new(
        "fig11",
        "Figure 11 — TIFS coverage vs. total IML storage (perfect dedicated index)",
        columns,
    );
    for r in results {
        let mut row = vec![Cell::from(r.workload.as_str())];
        row.extend(r.points.iter().map(|&(_, c)| Cell::Num(c)));
        report.push_row(row);
    }
    report
}
