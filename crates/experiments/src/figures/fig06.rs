//! Figure 6 — stream lookup heuristics: fraction of misses eliminated by
//! First / Digram / Recent / Longest, against the Opportunity bound.

use tifs_sequitur::heuristics::{
    evaluate_all, Heuristic, HeuristicOutcome, DEFAULT_MAX_CANDIDATES,
};

use crate::engine::Lab;
use crate::sink::{Cell, StructuredReport};

/// Per-workload heuristic coverages (misses summed across cores).
#[derive(Clone, Debug)]
pub struct HeuristicRow {
    /// Workload name.
    pub workload: String,
    /// Coverage per heuristic, in [`Heuristic::ALL`] order.
    pub coverage: Vec<f64>,
}

/// Runs the Figure 6 analysis over the lab's cached miss traces. Each
/// core's trace gets one suffix index, which every heuristic's replay
/// shares ([`evaluate_all`]).
pub fn run_on(lab: &Lab) -> Vec<HeuristicRow> {
    lab.analyze(|ctx| {
        let mut sums = [HeuristicOutcome::default(); Heuristic::ALL.len()];
        for t in &ctx.symbol_traces() {
            for (sum, (_, out)) in sums.iter_mut().zip(evaluate_all(t, DEFAULT_MAX_CANDIDATES)) {
                sum.eliminated += out.eliminated;
                sum.total_misses += out.total_misses;
            }
        }
        HeuristicRow {
            workload: ctx.name(),
            coverage: sums.iter().map(HeuristicOutcome::coverage).collect(),
        }
    })
}

/// Canonical structured form (one coverage column per heuristic).
pub fn structured(results: &[HeuristicRow]) -> StructuredReport {
    let mut columns = vec!["workload".to_string()];
    columns.extend(Heuristic::ALL.iter().map(|h| h.name().to_lowercase()));
    let mut report = StructuredReport::new(
        "fig06",
        "Figure 6 — fraction of misses eliminable per stream-lookup heuristic",
        columns,
    );
    for r in results {
        let mut row = vec![Cell::from(r.workload.as_str())];
        row.extend(r.coverage.iter().map(|&c| Cell::Num(c)));
        report.push_row(row);
    }
    report
}
