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

/// Per-core IML entries of a total storage budget of `kb` kilobytes.
fn entries_at(kb: f64) -> usize {
    entries_per_core_for_kb(kb, ANALYSIS_CORES).max(tifs_core::ENTRIES_PER_L2_BLOCK)
}

/// Runs the Figure 11 sweep (4 cores, shared index) over the lab's
/// cached miss traces.
///
/// A log that holds a core's whole trace never evicts. So from the first
/// budget whose logs hold the longest per-core trace on, every budget
/// replays the same logs to the same coverage, and the sweep stops there
/// and reuses that coverage for the larger budgets.
pub fn run_on(lab: &Lab) -> Vec<CapacityCurve> {
    lab.analyze(|ctx| {
        let traces = ctx.miss_traces();
        let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
        let mut unevicted = None;
        let points = STORAGE_KB
            .iter()
            .map(|&kb| {
                if let Some(coverage) = unevicted {
                    return (kb, coverage);
                }
                let entries = entries_at(kb);
                let mut f = FunctionalTifs::new(ANALYSIS_CORES, Some(entries));
                f.process_interleaved(traces);
                let coverage = f.report().coverage();
                if entries >= longest {
                    unevicted = Some(coverage);
                }
                (kb, coverage)
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

#[cfg(test)]
mod tests {
    use tifs_trace::workload::WorkloadSpec;

    use super::*;
    use crate::harness::ExpConfig;

    /// Every point, reused or not, equals a fresh sweep at its budget, on
    /// a lab whose OLTP curve evicts at the small budgets and stops
    /// evicting partway up.
    #[test]
    fn reused_points_equal_fresh_sweeps() {
        let exp = ExpConfig {
            instructions: 300_000,
            warmup: 0,
            seed: 3,
        };
        let lab = Lab::build(
            vec![WorkloadSpec::oltp_db2(), WorkloadSpec::tiny_server()],
            exp,
        );
        let curves = run_on(&lab);
        for (i, curve) in curves.iter().enumerate() {
            let traces = lab.miss_traces(i);
            let longest = traces.iter().map(Vec::len).max().expect("four cores");
            for &(kb, coverage) in &curve.points {
                let mut f = FunctionalTifs::new(ANALYSIS_CORES, Some(entries_at(kb)));
                f.process_interleaved(traces);
                assert_eq!(
                    coverage,
                    f.report().coverage(),
                    "{} at {kb} KB",
                    curve.workload
                );
            }
            let holding = STORAGE_KB.iter().filter(|&&kb| entries_at(kb) >= longest);
            assert!(holding.count() >= 2, "{}: nothing reused", curve.workload);
        }
        let db2 = lab.miss_traces(0).iter().map(Vec::len).max();
        assert!(
            db2 > Some(entries_at(STORAGE_KB[0])),
            "the smallest budget must evict"
        );
    }
}
