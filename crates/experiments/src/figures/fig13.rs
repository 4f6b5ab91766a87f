//! Figure 13 — TIFS performance comparison: speedup over next-line
//! prefetching for FDIP, TIFS (unbounded / dedicated / virtualized IML),
//! and a perfect prefetcher, plus the discontinuity prefetcher as an
//! extension baseline.

use crate::engine::{ExperimentGrid, Lab};
use crate::harness::SystemKind;
use crate::sink::{Cell, StructuredReport};

/// One workload's bar group.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Workload name.
    pub workload: String,
    /// (system, speedup over next-line) in [`SystemKind::figure13`] order.
    pub speedups: Vec<(SystemKind, f64)>,
}

impl SpeedupRow {
    /// Speedup of one system, if measured.
    pub fn of(&self, kind: SystemKind) -> Option<f64> {
        self.speedups
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, s)| s)
    }
}

/// Runs the Figure 13 comparison for the lab's workloads.
pub fn run_on(lab: &Lab) -> Vec<SpeedupRow> {
    let grid = ExperimentGrid::new(*lab.exp())
        .systems(std::iter::once(SystemKind::NextLine).chain(SystemKind::figure13()));
    grid.run_on(lab)
        .iter_rows()
        .map(|row| {
            let speedups = SystemKind::figure13()
                .into_iter()
                .map(|kind| (kind, row.speedup_over(kind, SystemKind::NextLine)))
                .collect();
            SpeedupRow {
                workload: row.workload().to_string(),
                speedups,
            }
        })
        .collect()
}

/// Canonical structured form (one speedup column per system), with the
/// paper's headline aggregates as a note.
pub fn structured(results: &[SpeedupRow]) -> StructuredReport {
    let systems = SystemKind::figure13();
    let mut columns = vec!["workload".to_string()];
    columns.extend(systems.iter().map(|s| s.name()));
    let mut report = StructuredReport::new(
        "fig13",
        "Figure 13 — speedup over next-line prefetching",
        columns,
    );
    for r in results {
        let mut row = vec![Cell::from(r.workload.as_str())];
        row.extend(
            systems
                .iter()
                .map(|&k| r.of(k).map_or(Cell::Null, Cell::Num)),
        );
        report.push_row(row);
    }
    let tifs_best = results
        .iter()
        .filter_map(|r| r.of(SystemKind::TifsVirtualized))
        .fold(f64::MIN, f64::max);
    report.push_note(format!(
        "TIFS-virtualized: average {:.3}, best {tifs_best:.3}; FDIP average {:.3} \
         (paper: TIFS 11% avg / 24% best; 5% avg over FDIP)",
        mean(results, SystemKind::TifsVirtualized),
        mean(results, SystemKind::Fdip),
    ));
    report
}

fn mean(results: &[SpeedupRow], kind: SystemKind) -> f64 {
    let vals: Vec<f64> = results.iter().filter_map(|r| r.of(kind)).collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}
