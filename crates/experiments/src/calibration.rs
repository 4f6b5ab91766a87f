//! Table I calibration: one measurement ([`measure`]) and its bands
//! ([`check_bands`]) — the single source of truth shared by the `tifs
//! calibrate` subcommand (which exits nonzero on drift) and the
//! `calibration_regression` test suite (which fails on drift), so the
//! two can never disagree about what "in calibration" means.
//!
//! The bands encode the paper-target *shapes* the evaluation is
//! sensitive to, with explicit tolerances:
//!
//! * **footprint class** (Table I): OLTP ~1 MB+, Web mid-hundreds of
//!   KB, DSS small;
//! * **miss density**: OLTP/Web miss often (the workloads TIFS
//!   targets), DSS rarely;
//! * **deep repetition** (paper Section 4: ~94% of misses repeat a
//!   previously observed stream);
//! * **temporal stream length** (Figure 5 medians: OLTP tens of
//!   misses, DSS/Web shorter);
//! * **Recent-heuristic coverage** (Figure 6: following the most
//!   recent prior occurrence covers most repetitive misses).
//!
//! When retuning specs (ROADMAP: drift vs. the paper's targets), move
//! these bands *with* the retune, in the same commit, deliberately.

use tifs_sequitur::categorize::{categorize, CategoryCounts};
use tifs_sequitur::heuristics::{evaluate_with_index, Heuristic, DEFAULT_MAX_CANDIDATES};
use tifs_sequitur::streams::stream_occurrences;
use tifs_sequitur::{LceIndex, LengthCdf};
use tifs_trace::filter::collapse_sequential;
use tifs_trace::workload::Workload;

use crate::harness::walk_core;

/// Target band for one workload, with explicit tolerances.
#[derive(Debug)]
pub struct Band {
    /// Workload display name (must match `WorkloadSpec::name`).
    pub name: &'static str,
    /// Inclusive text-footprint range in KB.
    pub text_kb: (u64, u64),
    /// Inclusive L1-I misses per 1000 instructions range.
    pub miss_per_1k: (f64, f64),
    /// Minimum repetitive-miss fraction.
    pub min_repetitive: f64,
    /// Inclusive median temporal-stream length range.
    pub median_len: (usize, usize),
    /// Minimum Recent-heuristic coverage.
    pub min_recent_cov: f64,
}

/// The instruction budget the bands are calibrated at (the default
/// [`ExpConfig`](crate::harness::ExpConfig) budget; the statistics are
/// scale-dependent).
pub const CALIBRATION_INSTRUCTIONS: u64 = 2_000_000;

/// Tolerance bands around the Table I shapes, in `WorkloadSpec::all_six`
/// order (seeded from the current generators; a drifting retune must
/// move these deliberately).
pub const TABLE1_BANDS: [Band; 6] = [
    Band {
        name: "OLTP DB2",
        text_kb: (900, 2200),
        miss_per_1k: (5.5, 8.5),
        min_repetitive: 0.93,
        median_len: (15, 40),
        min_recent_cov: 0.60,
    },
    Band {
        name: "OLTP Oracle",
        text_kb: (900, 2200),
        miss_per_1k: (5.0, 8.5),
        min_repetitive: 0.95,
        median_len: (35, 100),
        min_recent_cov: 0.65,
    },
    Band {
        name: "DSS Qry2",
        text_kb: (100, 400),
        miss_per_1k: (0.5, 2.0),
        min_repetitive: 0.85,
        median_len: (4, 12),
        min_recent_cov: 0.50,
    },
    Band {
        name: "DSS Qry17",
        text_kb: (60, 400),
        miss_per_1k: (0.1, 1.0),
        min_repetitive: 0.60,
        median_len: (3, 10),
        min_recent_cov: 0.30,
    },
    Band {
        name: "Web Apache",
        text_kb: (400, 1100),
        miss_per_1k: (5.0, 8.5),
        min_repetitive: 0.90,
        median_len: (8, 22),
        min_recent_cov: 0.55,
    },
    Band {
        name: "Web Zeus",
        text_kb: (150, 1100),
        miss_per_1k: (2.5, 5.5),
        min_repetitive: 0.90,
        median_len: (6, 18),
        min_recent_cov: 0.45,
    },
];

/// One workload's measured calibration statistics (what `tifs calibrate`
/// reports).
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Workload display name.
    pub name: String,
    /// Text footprint in KB.
    pub text_kb: u64,
    /// L1-I misses per 1000 instructions.
    pub miss_per_1k: f64,
    /// L1-I miss rate per access.
    pub miss_rate: f64,
    /// Length of the miss trace.
    pub misses: usize,
    /// Repetitive-miss fraction.
    pub repetitive: f64,
    /// Fraction of misses in the Opportunity category (Figure 3).
    pub opportunity: f64,
    /// Median temporal-stream length.
    pub median_len: usize,
    /// Recent-heuristic coverage.
    pub recent_cov: f64,
    /// Opportunity-heuristic coverage.
    pub opportunity_cov: f64,
}

/// Measures `workload` on core 0 over its first `instructions`
/// instructions through the Table II functional fetch model
/// ([`walk_core`]): the miss density, the Figure 3 categories, Figure 5's
/// median stream length over the sequentially collapsed trace, and
/// Figure 6's Recent and Opportunity coverage from one replay over one
/// suffix index.
pub fn measure(workload: &Workload, instructions: u64) -> Measurement {
    let walk = walk_core(workload, 0, instructions);
    let trace: Vec<u64> = walk.misses.iter().map(|b| b.0).collect();
    let counts = CategoryCounts::from_classes(&categorize(&trace));
    let collapsed: Vec<u64> = collapse_sequential(&walk.misses)
        .iter()
        .map(|b| b.0)
        .collect();
    let cdf = LengthCdf::from_occurrences(&stream_occurrences(&collapsed));
    let lce = LceIndex::new(&trace);
    let replayed = evaluate_with_index(
        &trace,
        &lce,
        &[Heuristic::Recent, Heuristic::Opportunity],
        DEFAULT_MAX_CANDIDATES,
    );
    let misses = trace.len() as u64;
    let miss_rate = if walk.block_transitions == 0 {
        0.0
    } else {
        misses as f64 / walk.block_transitions as f64
    };
    Measurement {
        name: workload.spec.name.to_string(),
        text_kb: workload.program.text_bytes() / 1024,
        miss_per_1k: 1000.0 * misses as f64 / instructions as f64,
        miss_rate,
        misses: trace.len(),
        repetitive: counts.repetitive_fraction(),
        opportunity: counts.fractions()[0],
        median_len: cdf.quantile(0.5).unwrap_or(0),
        recent_cov: replayed[0].coverage(),
        opportunity_cov: replayed[1].coverage(),
    }
}

/// Checks measurements against [`TABLE1_BANDS`], returning one line per
/// violated constraint (empty = fully calibrated). Order and names must
/// match the bands; a mismatch is itself a violation.
pub fn check_bands(measured: &[Measurement]) -> Vec<String> {
    let mut failures = Vec::new();
    if measured.len() != TABLE1_BANDS.len() {
        failures.push(format!(
            "expected {} Table I workloads, measured {}",
            TABLE1_BANDS.len(),
            measured.len()
        ));
        return failures;
    }
    for (m, band) in measured.iter().zip(&TABLE1_BANDS) {
        if m.name != band.name {
            failures.push(format!(
                "workload order changed: measured '{}' where band '{}' expected",
                m.name, band.name
            ));
            continue;
        }
        let mut check = |what: &str, ok: bool, detail: String| {
            if !ok {
                failures.push(format!("{}: {what} {detail}", m.name));
            }
        };
        check(
            "text footprint",
            (band.text_kb.0..=band.text_kb.1).contains(&m.text_kb),
            format!(
                "{} KB outside [{}, {}] KB",
                m.text_kb, band.text_kb.0, band.text_kb.1
            ),
        );
        check(
            "miss density",
            m.miss_per_1k >= band.miss_per_1k.0 && m.miss_per_1k <= band.miss_per_1k.1,
            format!(
                "{:.2} misses/1k-instr outside [{}, {}]",
                m.miss_per_1k, band.miss_per_1k.0, band.miss_per_1k.1
            ),
        );
        check(
            "repetitive fraction",
            m.repetitive >= band.min_repetitive,
            format!(
                "{:.3} below minimum {:.2}",
                m.repetitive, band.min_repetitive
            ),
        );
        check(
            "median stream length",
            (band.median_len.0..=band.median_len.1).contains(&m.median_len),
            format!(
                "{} outside [{}, {}]",
                m.median_len, band.median_len.0, band.median_len.1
            ),
        );
        check(
            "Recent coverage",
            m.recent_cov >= band.min_recent_cov,
            format!(
                "{:.3} below minimum {:.2}",
                m.recent_cov, band.min_recent_cov
            ),
        );
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_band() -> Vec<Measurement> {
        TABLE1_BANDS
            .iter()
            .map(|b| Measurement {
                name: b.name.to_string(),
                text_kb: (b.text_kb.0 + b.text_kb.1) / 2,
                miss_per_1k: (b.miss_per_1k.0 + b.miss_per_1k.1) / 2.0,
                miss_rate: 0.0,
                misses: 0,
                repetitive: (b.min_repetitive + 1.0) / 2.0,
                opportunity: 0.0,
                median_len: (b.median_len.0 + b.median_len.1) / 2,
                recent_cov: (b.min_recent_cov + 1.0) / 2.0,
                opportunity_cov: 0.0,
            })
            .collect()
    }

    #[test]
    fn centred_measurements_pass() {
        assert!(check_bands(&in_band()).is_empty());
    }

    #[test]
    fn each_drifted_statistic_is_reported() {
        let mut m = in_band();
        m[0].miss_per_1k = 0.0;
        m[2].median_len = 10_000;
        m[5].recent_cov = 0.0;
        let failures = check_bands(&m);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures[0].contains("OLTP DB2") && failures[0].contains("miss density"));
        assert!(failures[1].contains("DSS Qry2") && failures[1].contains("median stream length"));
        assert!(failures[2].contains("Web Zeus") && failures[2].contains("Recent coverage"));
    }

    #[test]
    fn wrong_count_and_wrong_order_fail() {
        assert!(!check_bands(&in_band()[..3]).is_empty());
        let mut m = in_band();
        m.swap(0, 1);
        let failures = check_bands(&m);
        assert!(failures.iter().any(|f| f.contains("order changed")));
    }
}
