//! Figure 10 — limited lookahead of fetch-directed prefetching: the
//! number of correct non-inner-loop branch predictions a
//! branch-predictor-directed prefetcher must make to predict the next
//! *four* instruction-cache misses.
//!
//! For each miss, we count conditional branches outside innermost loops
//! between that miss and the fourth subsequent miss. The paper finds that
//! for roughly a quarter of misses, more than 16 such branches are needed.
//!
//! The count comes from core 0's *lookahead marks*: at each miss, the
//! number of such branches executed before it ([`CoreWalk::marks`]).
//! [`run_on`] takes a workload's marks from the first of three sources
//! that has them:
//!
//! 1. its own trace-store entry, when the lab has a store;
//! 2. the lab's functional pass, when this process ran it
//!    ([`Lab::lookahead_marks`]): the walk that produced the miss traces
//!    recorded the marks too;
//! 3. otherwise a walk of core 0 alone ([`walk_core`]), so the figure run
//!    by itself walks one core, not all four.
//!
//! Marks from sources 2 and 3 are written through to the store, so
//! stores see the same entries whichever source ran.
//!
//! [`CoreWalk::marks`]: crate::harness::CoreWalk::marks

use crate::engine::{functional_section, Lab};
use crate::harness::walk_core;
use crate::sink::{Cell, StructuredReport};

/// Distribution of branches-per-4-miss-lookahead for one workload.
#[derive(Clone, Debug)]
pub struct LookaheadDist {
    /// Workload name.
    pub workload: String,
    /// Sorted branch counts (one per miss).
    pub counts: Vec<u32>,
}

impl LookaheadDist {
    /// Quantile of the distribution.
    pub fn quantile(&self, q: f64) -> u32 {
        if self.counts.is_empty() {
            return 0;
        }
        let idx = ((self.counts.len() - 1) as f64 * q).round() as usize;
        self.counts[idx]
    }

    /// Fraction of misses needing more than `threshold` branch
    /// predictions for a 4-miss lookahead.
    pub fn fraction_above(&self, threshold: u32) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        let above = self.counts.iter().filter(|&&c| c > threshold).count();
        above as f64 / self.counts.len() as f64
    }
}

/// Misses of lookahead to aggregate over (the paper uses four).
pub const LOOKAHEAD_MISSES: usize = 4;

/// Store section name for the cached lookahead marks (core 0's; bump on
/// any change to the derivation).
const STORE_SECTION: &str = "fig10_lookahead_v1";

/// Runs the Figure 10 analysis (core 0's stream per workload). When the
/// lab has a persistent trace store, the marks are cached under their own
/// section key, so warm runs skip the functional model entirely.
pub fn run_on(lab: &Lab) -> Vec<LookaheadDist> {
    lab.analyze(|ctx| {
        let key = ctx.section_key(&functional_section(STORE_SECTION), 1);
        let miss_marks: Vec<u64> = ctx
            .store()
            .and_then(|store| store.load(&key))
            .and_then(|mut sections| (sections.len() == 1).then(|| sections.remove(0)))
            .unwrap_or_else(|| {
                let marks = match ctx.lookahead_marks() {
                    Some(marks) => marks.to_vec(),
                    None => walk_core(ctx.workload(), 0, ctx.exp().instructions).marks,
                };
                if let Some(store) = ctx.store() {
                    if let Err(e) = store.save(&key, std::slice::from_ref(&marks)) {
                        eprintln!("[trace-store] failed to persist fig10 marks: {e}");
                    }
                }
                marks
            });
        let mut counts: Vec<u32> = miss_marks
            .windows(LOOKAHEAD_MISSES + 1)
            .map(|w| (w[LOOKAHEAD_MISSES] - w[0]) as u32)
            .collect();
        counts.sort_unstable();
        LookaheadDist {
            workload: ctx.name(),
            counts,
        }
    })
}

/// Canonical structured form (quantiles plus the >16-branch fraction).
pub fn structured(results: &[LookaheadDist]) -> StructuredReport {
    let mut report = StructuredReport::new(
        "fig10",
        "Figure 10 — non-inner-loop branch predictions needed for a 4-miss lookahead",
        [
            "workload",
            "misses",
            "p25",
            "median",
            "p75",
            "p90",
            "frac_above_16",
        ],
    );
    for r in results {
        report.push_row(vec![
            Cell::from(r.workload.as_str()),
            Cell::from(r.counts.len()),
            Cell::from(u64::from(r.quantile(0.25))),
            Cell::from(u64::from(r.quantile(0.5))),
            Cell::from(u64::from(r.quantile(0.75))),
            Cell::from(u64::from(r.quantile(0.9))),
            Cell::Num(r.fraction_above(16)),
        ]);
    }
    report
}
