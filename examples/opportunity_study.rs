//! The paper's Section 4 opportunity study in miniature: collect an L1-I
//! miss trace, run SEQUITUR, and report miss categorization, stream
//! lengths, and lookup-heuristic coverage for one workload.
//!
//! ```sh
//! cargo run --release --example opportunity_study [workload]
//! ```
//! where `workload` is one of: oltp-db2, oltp-oracle, dss-qry2, dss-qry17,
//! web-apache, web-zeus (default: oltp-oracle).

use tifs::sequitur::categorize::{categorize, CategoryCounts};
use tifs::sequitur::heuristics::{evaluate_all, DEFAULT_MAX_CANDIDATES};
use tifs::sequitur::streams::stream_occurrences;
use tifs::sequitur::{LengthCdf, Sequitur};
use tifs::sim::config::SystemConfig;
use tifs::sim::miss_trace::miss_trace_with_model;
use tifs::trace::filter::collapse_sequential;
use tifs::trace::workload::{Workload, WorkloadSpec};

fn pick_spec(name: &str) -> WorkloadSpec {
    match name {
        "oltp-db2" => WorkloadSpec::oltp_db2(),
        "oltp-oracle" => WorkloadSpec::oltp_oracle(),
        "dss-qry2" => WorkloadSpec::dss_qry2(),
        "dss-qry17" => WorkloadSpec::dss_qry17(),
        "web-apache" => WorkloadSpec::web_apache(),
        "web-zeus" => WorkloadSpec::web_zeus(),
        other => {
            eprintln!("unknown workload '{other}', using oltp-oracle");
            WorkloadSpec::oltp_oracle()
        }
    }
}

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "oltp-oracle".into());
    let spec = pick_spec(&name);
    let workload = Workload::build(&spec, 42);
    let n = 2_000_000;
    println!(
        "collecting {n}-instruction miss trace for '{}' ...",
        spec.name
    );

    let records = workload.walker(0).take(n);
    let (miss, model) = miss_trace_with_model(records, &SystemConfig::table2());
    let trace: Vec<u64> = miss.iter().map(|b| b.0).collect();
    println!(
        "{} misses ({:.2}% of block fetches)\n",
        trace.len(),
        100.0 * model.miss_rate()
    );

    // Grammar statistics.
    let mut s = Sequitur::with_capacity(trace.len());
    s.extend(trace.iter().copied());
    let g = s.into_grammar();
    let stats = g.stats();
    println!(
        "SEQUITUR: {} rules, grammar size {} ({:.1}x compression)",
        stats.num_rules,
        stats.grammar_size,
        stats.input_len as f64 / stats.grammar_size.max(1) as f64
    );

    // Figure 3-style categorization.
    let counts = CategoryCounts::from_classes(&categorize(&trace));
    let [opp, head, new, nonrep] = counts.fractions();
    println!(
        "categories: opportunity {:.1}%  head {:.1}%  new {:.1}%  non-repetitive {:.1}%",
        100.0 * opp,
        100.0 * head,
        100.0 * new,
        100.0 * nonrep
    );

    // Figure 5-style stream lengths (sequential collapsed).
    let collapsed: Vec<u64> = collapse_sequential(&miss).iter().map(|b| b.0).collect();
    let cdf = LengthCdf::from_occurrences(&stream_occurrences(&collapsed));
    println!(
        "stream lengths (discontinuous blocks): median {:?}, p90 {:?}",
        cdf.quantile(0.5),
        cdf.quantile(0.9)
    );

    // Figure 6-style heuristics.
    println!("\nlookup heuristics (fraction of misses eliminable):");
    for (h, out) in evaluate_all(&trace, DEFAULT_MAX_CANDIDATES) {
        println!("  {:12} {:.1}%", h.name(), 100.0 * out.coverage());
    }
}
