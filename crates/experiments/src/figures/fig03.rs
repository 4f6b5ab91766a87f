//! Figure 3 — Opportunity: categorization of L1-I misses as
//! Opportunity / Head / New / Non-repetitive via SEQUITUR.

use tifs_sequitur::categorize::{categorize, CategoryCounts};

use crate::engine::Lab;
use crate::report::{pct, render_table};
use crate::sink::{Cell, StructuredReport};

/// Per-workload categorization outcome (summed across cores).
#[derive(Clone, Debug)]
pub struct Categorization {
    /// Workload name.
    pub workload: String,
    /// Aggregate counts.
    pub counts: CategoryCounts,
}

/// Runs the Figure 3 analysis over the lab's cached miss traces (4
/// cores per workload).
pub fn run_on(lab: &Lab) -> Vec<Categorization> {
    lab.analyze(|ctx| {
        let mut counts = CategoryCounts::default();
        for t in ctx.symbol_traces() {
            let c = CategoryCounts::from_classes(&categorize(&t));
            counts.non_repetitive += c.non_repetitive;
            counts.new += c.new;
            counts.head += c.head;
            counts.opportunity += c.opportunity;
        }
        Categorization {
            workload: ctx.name(),
            counts,
        }
    })
}

/// Canonical structured form (fractions as numbers, not percentages).
pub fn structured(results: &[Categorization]) -> StructuredReport {
    let mut report = StructuredReport::new(
        "fig03",
        "Figure 3 — L1-I miss categorization",
        [
            "workload",
            "misses",
            "opportunity",
            "head",
            "new",
            "non_repetitive",
            "repetitive",
        ],
    );
    for r in results {
        let [opp, head, new, nonrep] = r.counts.fractions();
        report.push_row(vec![
            Cell::from(r.workload.as_str()),
            Cell::from(r.counts.total() as u64),
            Cell::Num(opp),
            Cell::Num(head),
            Cell::Num(new),
            Cell::Num(nonrep),
            Cell::Num(r.counts.repetitive_fraction()),
        ]);
    }
    report
}

/// Renders the per-workload category fractions.
pub fn render(results: &[Categorization]) -> String {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let [opp, head, new, nonrep] = r.counts.fractions();
            vec![
                r.workload.clone(),
                r.counts.total().to_string(),
                pct(opp),
                pct(head),
                pct(new),
                pct(nonrep),
                pct(r.counts.repetitive_fraction()),
            ]
        })
        .collect();
    let avg = results
        .iter()
        .map(|r| r.counts.repetitive_fraction())
        .sum::<f64>()
        / results.len().max(1) as f64;
    format!(
        "Figure 3 — L1-I miss categorization (paper: 94% repetitive on average)\n{}\naverage repetitive fraction: {}\n",
        render_table(
            &["workload", "misses", "opportunity", "head", "new", "non-rep", "repetitive"],
            &rows
        ),
        pct(avg)
    )
}
