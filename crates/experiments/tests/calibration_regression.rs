//! Calibration regression: the synthetic workloads are pinned against
//! the paper's Table I target *shapes* with explicit tolerances, at
//! `tifs calibrate`'s default scale (2M instructions, core 0). The
//! generators are fully deterministic, so any parameter retune or
//! generator change that moves a workload out of its band fails loudly
//! here instead of silently skewing every downstream figure.
//!
//! The measurement and the bands live in
//! [`tifs_experiments::calibration`] — one source shared with `tifs
//! calibrate`, which exits nonzero on the same drift this suite fails
//! on. When retuning specs (ROADMAP: drift vs. the paper's targets),
//! move the bands *with* the retune, in the same commit, deliberately.

use tifs_experiments::calibration::{self, Measurement, CALIBRATION_INSTRUCTIONS};
use tifs_experiments::engine::Lab;
use tifs_experiments::harness::ExpConfig;

/// The statistics `tifs calibrate` reports, per workload — measured once
/// per process: the generators are deterministic, and both tests in this
/// suite read the same statistics, so the expensive 2M-instruction pass
/// is shared instead of repeated.
fn measure() -> &'static [Measurement] {
    static MEASURED: std::sync::OnceLock<Vec<Measurement>> = std::sync::OnceLock::new();
    MEASURED.get_or_init(|| {
        Lab::all_six(ExpConfig::default())
            .analyze(|ctx| calibration::measure(ctx.workload(), CALIBRATION_INSTRUCTIONS))
    })
}

#[test]
fn workload_statistics_stay_in_table1_bands() {
    let failures = calibration::check_bands(measure());
    assert!(
        failures.is_empty(),
        "calibration drifted out of its Table I bands (retune deliberately, \
         updating the bands in the same commit):\n  {}",
        failures.join("\n  ")
    );
}

#[test]
fn cross_workload_shapes_match_the_paper() {
    let measured = measure();
    let by_name = |name: &str| {
        measured
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("missing workload {name}"))
    };
    // OLTP and Web miss far more often than DSS (Table I / Figure 3: the
    // workloads TIFS targets are the miss-heavy ones).
    for heavy in ["OLTP DB2", "OLTP Oracle", "Web Apache", "Web Zeus"] {
        for light in ["DSS Qry2", "DSS Qry17"] {
            assert!(
                by_name(heavy).miss_per_1k > 2.0 * by_name(light).miss_per_1k,
                "{heavy} should miss much more densely than {light}"
            );
        }
    }
    // OLTP streams are the longest (Figure 5's medians).
    let oltp_min = by_name("OLTP DB2")
        .median_len
        .min(by_name("OLTP Oracle").median_len);
    for short in ["DSS Qry2", "DSS Qry17", "Web Zeus"] {
        assert!(
            oltp_min > by_name(short).median_len,
            "OLTP median stream length should exceed {short}'s"
        );
    }
    // Aggregate repetition: the paper reports ~94% of misses repeat a
    // previously observed stream; hold the suite above 90% weighted.
    let total_misses: usize = measured.iter().map(|m| m.misses).sum();
    let weighted_rep: f64 = measured
        .iter()
        .map(|m| m.repetitive * m.misses as f64)
        .sum::<f64>()
        / total_misses as f64;
    assert!(
        weighted_rep >= 0.90,
        "suite-wide repetitive fraction {weighted_rep:.3} fell below 0.90 \
         (paper: ~0.94)"
    );
}
