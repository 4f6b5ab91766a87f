//! Figure 1 — Opportunity: application performance improvement as an
//! increasing fraction of L1 instruction misses is eliminated.
//!
//! A probabilistic prefetcher instantly fills a configurable fraction of
//! L1-I misses (those whose block is already on chip); speedup over the
//! next-line baseline is plotted against coverage, with a linear
//! regression per workload as in the paper.

use crate::engine::{ExperimentGrid, Lab};
use crate::harness::SystemKind;
use crate::report::{linear_regression, render_table};
use crate::sink::{Cell, StructuredReport};

/// One workload's sweep.
#[derive(Clone, Debug)]
pub struct OpportunityCurve {
    /// Workload name.
    pub workload: String,
    /// (coverage, speedup) points.
    pub points: Vec<(f64, f64)>,
    /// Regression slope (speedup per unit coverage).
    pub slope: f64,
    /// Regression intercept.
    pub intercept: f64,
    /// Coefficient of determination of the fit.
    pub r2: f64,
}

impl OpportunityCurve {
    /// Speedup the fit predicts at full coverage (the paper quotes >30%
    /// for OLTP and Web-Apache).
    pub fn speedup_at_full_coverage(&self) -> f64 {
        self.slope + self.intercept
    }
}

/// Coverage points swept (fractions of misses eliminated).
pub const COVERAGES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Runs the Figure 1 sweep for the lab's workloads.
pub fn run_on(lab: &Lab) -> Vec<OpportunityCurve> {
    let systems: Vec<SystemKind> = std::iter::once(SystemKind::NextLine)
        .chain(COVERAGES[1..].iter().map(|&p| SystemKind::Probabilistic(p)))
        .collect();
    let grid = ExperimentGrid::new(*lab.exp()).systems(systems);
    grid.run_on(lab)
        .iter_rows()
        .map(|row| {
            let mut points = vec![(0.0, 1.0)];
            points.extend(COVERAGES[1..].iter().map(|&p| {
                let s = row.speedup_over(SystemKind::Probabilistic(p), SystemKind::NextLine);
                (p, s)
            }));
            let xs: Vec<f64> = points.iter().map(|&(x, _)| x).collect();
            let ys: Vec<f64> = points.iter().map(|&(_, y)| y).collect();
            let (slope, intercept, r2) = linear_regression(&xs, &ys);
            OpportunityCurve {
                workload: row.workload().to_string(),
                points,
                slope,
                intercept,
                r2,
            }
        })
        .collect()
}

/// Canonical structured form of the sweep (one row per workload).
pub fn structured(curves: &[OpportunityCurve]) -> StructuredReport {
    let mut columns = vec!["workload".to_string()];
    columns.extend(
        COVERAGES
            .iter()
            .map(|c| format!("speedup_at_{:.0}pct", c * 100.0)),
    );
    columns.extend(["slope", "intercept", "r2", "at_full_coverage"].map(String::from));
    let mut report = StructuredReport::new(
        "fig01",
        "Figure 1 — speedup over next-line prefetching vs. fraction of L1-I misses eliminated",
        columns,
    );
    for c in curves {
        let mut row = vec![Cell::from(c.workload.as_str())];
        row.extend(c.points.iter().map(|&(_, s)| Cell::Num(s)));
        row.extend([
            Cell::Num(c.slope),
            Cell::Num(c.intercept),
            Cell::Num(c.r2),
            Cell::Num(c.speedup_at_full_coverage()),
        ]);
        report.push_row(row);
    }
    report
}

/// Renders the sweep as the paper's figure data.
pub fn render(curves: &[OpportunityCurve]) -> String {
    let mut headers = vec!["workload"];
    let labels: Vec<String> = COVERAGES
        .iter()
        .map(|c| format!("{:.0}%", c * 100.0))
        .collect();
    headers.extend(labels.iter().map(String::as_str));
    headers.extend(["slope", "at-100%"]);
    let rows: Vec<Vec<String>> = curves
        .iter()
        .map(|c| {
            let mut row = vec![c.workload.clone()];
            row.extend(c.points.iter().map(|&(_, s)| format!("{s:.3}")));
            row.push(format!("{:.3}", c.slope));
            row.push(format!("{:.3}", c.speedup_at_full_coverage()));
            row
        })
        .collect();
    format!(
        "Figure 1 — speedup over next-line prefetching vs. fraction of L1-I misses eliminated\n{}",
        render_table(&headers, &rows)
    )
}
