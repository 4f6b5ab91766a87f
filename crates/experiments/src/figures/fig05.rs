//! Figure 5 — cumulative distribution of temporal-stream lengths
//! (sequential misses removed, as with a perfect next-line prefetcher).

use tifs_sequitur::streams::stream_occurrences;
use tifs_sequitur::LengthCdf;
use tifs_trace::filter::collapse_sequential;

use crate::engine::Lab;
use crate::sink::{Cell, StructuredReport};

/// Per-workload stream-length distribution (cores merged).
#[derive(Clone, Debug)]
pub struct StreamLengths {
    /// Workload name.
    pub workload: String,
    /// Merged CDF over opportunity misses.
    pub cdf: LengthCdf,
}

/// Runs the Figure 5 analysis over the lab's cached miss traces.
pub fn run_on(lab: &Lab) -> Vec<StreamLengths> {
    lab.analyze(|ctx| {
        let mut occurrences = Vec::new();
        for t in ctx.miss_traces() {
            let collapsed: Vec<u64> = collapse_sequential(t).iter().map(|b| b.0).collect();
            occurrences.extend(stream_occurrences(&collapsed));
        }
        StreamLengths {
            workload: ctx.name(),
            cdf: LengthCdf::from_occurrences(&occurrences),
        }
    })
}

/// Canonical structured form (quantiles by share of opportunity misses;
/// absent quantiles are null). The paper reads the median off the
/// curves; OLTP-Oracle's median is ~80 discontinuous blocks.
pub fn structured(results: &[StreamLengths]) -> StructuredReport {
    let mut report = StructuredReport::new(
        "fig05",
        "Figure 5 — temporal stream length CDF (discontinuous blocks)",
        ["workload", "opportunity", "p25", "median", "p75", "p90"],
    );
    for r in results {
        let q = |p: f64| {
            r.cdf
                .quantile(p)
                .map_or(Cell::Null, |v| Cell::from(v as u64))
        };
        report.push_row(vec![
            Cell::from(r.workload.as_str()),
            Cell::from(r.cdf.total_opportunity() as u64),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
        ]);
    }
    report
}
