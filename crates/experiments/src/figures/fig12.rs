//! Figure 12 — TIFS coverage, discards, and L2 traffic overhead with the
//! paper-sized (156 KB, virtualized) IML.
//!
//! Left panel: coverage / residual miss / discard rates, normalized to the
//! base system's L1-I fetch misses. Right panel: L2 traffic added by TIFS
//! (IML reads, IML writes, discarded prefetches) as a fraction of the base
//! system's L2 traffic (reads, fetches, writebacks).

use crate::engine::{ExperimentGrid, Lab};
use crate::harness::SystemKind;
use crate::report::{pct, render_table};
use crate::sink::{Cell, StructuredReport};

/// One workload's Figure 12 measurements.
#[derive(Clone, Debug)]
pub struct TrafficRow {
    /// Workload name.
    pub workload: String,
    /// Fraction of baseline misses covered by TIFS.
    pub coverage: f64,
    /// Fraction remaining as demand misses.
    pub miss: f64,
    /// Discarded prefetches normalized to baseline misses.
    pub discard: f64,
    /// IML read traffic as a fraction of base L2 traffic.
    pub iml_read_frac: f64,
    /// IML write traffic as a fraction of base L2 traffic.
    pub iml_write_frac: f64,
    /// Discarded-prefetch traffic as a fraction of base L2 traffic.
    pub discard_frac: f64,
}

impl TrafficRow {
    /// Total L2 traffic increase over the base system.
    pub fn total_overhead(&self) -> f64 {
        self.iml_read_frac + self.iml_write_frac + self.discard_frac
    }
}

/// Runs the Figure 12 measurement for the lab's workloads.
pub fn run_on(lab: &Lab) -> Vec<TrafficRow> {
    let grid = ExperimentGrid::new(*lab.exp())
        .systems([SystemKind::NextLine, SystemKind::TifsVirtualized]);
    grid.run_on(lab)
        .iter_rows()
        .map(|row| {
            let base = row.report(SystemKind::NextLine).expect("base in grid");
            let tifs = row
                .report(SystemKind::TifsVirtualized)
                .expect("tifs in grid");

            let covered: u64 = tifs.cores.iter().map(|c| c.prefetch_hits).sum();
            let demand: u64 = tifs.cores.iter().map(|c| c.demand_misses).sum();
            let baseline_misses = (covered + demand).max(1);
            let discards = tifs.prefetcher_counter("discards").unwrap_or(0.0);

            let base_traffic = base.l2.base_traffic().max(1) as f64;
            TrafficRow {
                workload: row.workload().to_string(),
                coverage: covered as f64 / baseline_misses as f64,
                miss: demand as f64 / baseline_misses as f64,
                discard: discards / baseline_misses as f64,
                iml_read_frac: tifs.l2.of(tifs_sim::L2ReqKind::ImlRead) as f64 / base_traffic,
                iml_write_frac: tifs.l2.of(tifs_sim::L2ReqKind::ImlWrite) as f64 / base_traffic,
                discard_frac: discards / base_traffic,
            }
        })
        .collect()
}

/// Canonical structured form (both panels, one row per workload).
pub fn structured(results: &[TrafficRow]) -> StructuredReport {
    let mut report = StructuredReport::new(
        "fig12",
        "Figure 12 — TIFS coverage / discards and L2 traffic overhead (156 KB virtualized IML)",
        [
            "workload",
            "coverage",
            "miss",
            "discard",
            "iml_read_frac",
            "iml_write_frac",
            "discard_frac",
            "total_overhead",
        ],
    );
    for r in results {
        report.push_row(vec![
            Cell::from(r.workload.as_str()),
            Cell::Num(r.coverage),
            Cell::Num(r.miss),
            Cell::Num(r.discard),
            Cell::Num(r.iml_read_frac),
            Cell::Num(r.iml_write_frac),
            Cell::Num(r.discard_frac),
            Cell::Num(r.total_overhead()),
        ]);
    }
    report
}

/// Renders both panels.
pub fn render(results: &[TrafficRow]) -> String {
    let left: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                pct(r.coverage),
                pct(r.miss),
                pct(r.discard),
            ]
        })
        .collect();
    let right: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                pct(r.iml_read_frac),
                pct(r.iml_write_frac),
                pct(r.discard_frac),
                pct(r.total_overhead()),
            ]
        })
        .collect();
    let avg =
        results.iter().map(TrafficRow::total_overhead).sum::<f64>() / results.len().max(1) as f64;
    format!(
        "Figure 12 (left) — coverage / miss / discards, % of baseline L1-I misses\n{}\n\
         Figure 12 (right) — L2 traffic increase, % of base L2 traffic (paper: 13% average)\n{}\naverage total overhead: {}\n",
        render_table(&["workload", "coverage", "miss", "discard"], &left),
        render_table(
            &["workload", "IML read", "IML write", "discards", "total"],
            &right
        ),
        pct(avg)
    )
}
