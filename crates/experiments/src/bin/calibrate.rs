//! Maintenance tool: one-line-per-workload calibration summary against the
//! paper's targets (miss rate, repetitive fraction, opportunity, median
//! stream length, Recent-heuristic coverage). Used when retuning the
//! synthetic workload parameters; see DESIGN.md §1 for the target shapes.
//!
//! Workloads build and analyze in parallel through the engine [`Lab`];
//! the summary is also written as a structured report (`TIFS_RESULTS`).
//!
//! At the default instruction budget the measurements are additionally
//! checked against the Table I bands ([`tifs_experiments::calibration`],
//! the same source the `calibration_regression` suite pins): any
//! workload outside its band prints a per-violation line plus a one-line
//! summary and makes the process **exit 1**, so scripted retunes and CI
//! cannot mistake a drifted calibration run for a clean one. A
//! non-default budget skips the check (the bands are scale-dependent)
//! and says so.
//!
//! ```sh
//! cargo run --release -p tifs-experiments --bin calibrate [instructions]
//! ```

use tifs_experiments::calibration::{self, Measurement, CALIBRATION_INSTRUCTIONS};
use tifs_experiments::engine::Lab;
use tifs_experiments::harness::ExpConfig;
use tifs_experiments::sink::{self, Cell, StructuredReport};
use tifs_sequitur::categorize::{categorize, CategoryCounts};
use tifs_sequitur::heuristics::{evaluate_with_index, Heuristic, HeuristicConfig};
use tifs_sequitur::streams::stream_occurrences;
use tifs_sequitur::{LceIndex, LengthCdf};
use tifs_sim::{miss_trace_with_model, SystemConfig};
use tifs_trace::filter::collapse_sequential;

struct CalRow {
    name: String,
    text_kb: u64,
    miss_per_1k: f64,
    miss_rate: f64,
    misses: usize,
    repetitive: f64,
    opportunity: f64,
    median_len: usize,
    recent_cov: f64,
    opp_cov: f64,
    secs: f64,
}

fn main() -> std::process::ExitCode {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(CALIBRATION_INSTRUCTIONS);
    let exp = ExpConfig {
        instructions: n,
        ..ExpConfig::default()
    };
    let cfg = SystemConfig::table2();
    let lab = Lab::all_six(exp);
    let rows = lab.analyze(|ctx| {
        let t0 = std::time::Instant::now();
        // Core 0 only, with the totals-reporting model (the lab cache
        // holds traces alone), at the calibration instruction count.
        let records = ctx.workload().walker(0).take(n as usize);
        let (miss, model) = miss_trace_with_model(records, &cfg);
        let trace: Vec<u64> = miss.iter().map(|b| b.0).collect();
        let counts = CategoryCounts::from_classes(&categorize(&trace));
        // Fig 5: collapse sequential then stream lengths
        let collapsed: Vec<u64> = collapse_sequential(&miss).iter().map(|b| b.0).collect();
        let cdf = LengthCdf::from_occurrences(&stream_occurrences(&collapsed));
        let med = cdf.quantile(0.5).unwrap_or(0);
        // Fig 6: Recent and Opportunity coverage over one suffix index
        let lce = LceIndex::new(&trace);
        let replay = |h| evaluate_with_index(&trace, &lce, &HeuristicConfig::new(h));
        let recent = replay(Heuristic::Recent);
        let opp = replay(Heuristic::Opportunity);
        let (_acc, misses) = model.totals();
        CalRow {
            name: ctx.spec().name.to_string(),
            text_kb: ctx.workload().program.text_bytes() / 1024,
            miss_per_1k: 1000.0 * misses as f64 / n as f64,
            miss_rate: model.miss_rate(),
            misses: trace.len(),
            repetitive: counts.repetitive_fraction(),
            opportunity: counts.fractions()[0],
            median_len: med,
            recent_cov: recent.coverage(),
            opp_cov: opp.coverage(),
            secs: t0.elapsed().as_secs_f64(),
        }
    });
    let mut structured = StructuredReport::new(
        "calibrate",
        "Workload calibration summary vs. paper targets",
        [
            "workload",
            "text_kb",
            "miss_per_1k_instr",
            "miss_rate",
            "misses",
            "repetitive",
            "opportunity",
            "median_stream_len",
            "recent_coverage",
            "opportunity_coverage",
        ],
    );
    for r in &rows {
        println!(
            "{:12} text={:6}KB txn miss/1k-instr={:5.1} missrate={:5.3} misses={:7} rep={:5.3} opp={:5.3} medlen={:4} recent={:5.3} oppcov={:5.3}  [{:.1}s]",
            r.name,
            r.text_kb,
            r.miss_per_1k,
            r.miss_rate,
            r.misses,
            r.repetitive,
            r.opportunity,
            r.median_len,
            r.recent_cov,
            r.opp_cov,
            r.secs,
        );
        structured.push_row(vec![
            Cell::from(r.name.as_str()),
            Cell::from(r.text_kb),
            Cell::Num(r.miss_per_1k),
            Cell::Num(r.miss_rate),
            Cell::from(r.misses),
            Cell::Num(r.repetitive),
            Cell::Num(r.opportunity),
            Cell::from(r.median_len),
            Cell::Num(r.recent_cov),
            Cell::Num(r.opp_cov),
        ]);
    }
    sink::publish(&structured);
    if n != CALIBRATION_INSTRUCTIONS {
        println!(
            "calibration: band check skipped (bands are pinned at {CALIBRATION_INSTRUCTIONS} \
             instructions, this run used {n})"
        );
        return std::process::ExitCode::SUCCESS;
    }
    let measured: Vec<Measurement> = rows
        .iter()
        .map(|r| Measurement {
            name: r.name.clone(),
            text_kb: r.text_kb,
            miss_per_1k: r.miss_per_1k,
            repetitive: r.repetitive,
            median_len: r.median_len,
            recent_cov: r.recent_cov,
        })
        .collect();
    let failures = calibration::check_bands(&measured);
    if failures.is_empty() {
        println!(
            "calibration: all {} workloads within their Table I bands",
            measured.len()
        );
    } else {
        for f in &failures {
            eprintln!("calibration drift: {f}");
        }
        println!(
            "calibration: DRIFTED — {} statistic(s) outside the Table I bands \
             (retune deliberately; the bands live in tifs_experiments::calibration)",
            failures.len()
        );
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}
