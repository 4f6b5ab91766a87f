//! Figure 1 — Opportunity: application performance improvement as an
//! increasing fraction of L1 instruction misses is eliminated.
//!
//! A probabilistic prefetcher instantly fills a configurable fraction of
//! L1-I misses (those whose block is already on chip); speedup over the
//! next-line baseline is plotted against coverage, with a linear
//! regression per workload as in the paper.

use crate::engine::{ExperimentGrid, Lab};
use crate::harness::SystemKind;
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

/// Ordinary least-squares fit `y = slope * x + intercept`; returns
/// `(slope, intercept, r2)`.
///
/// # Panics
///
/// Panics if the series lengths differ or fewer than two points are given.
fn linear_regression(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len(), "series must align");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - (slope * x + intercept);
            e * e
        })
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    (slope, intercept, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_exact_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let (m, b, r2) = linear_regression(&xs, &ys);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((b - 1.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_flat() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [5.0, 5.0, 5.0];
        let (m, _, r2) = linear_regression(&xs, &ys);
        assert_eq!(m, 0.0);
        assert!((r2 - 1.0).abs() < 1e-12);
    }
}
