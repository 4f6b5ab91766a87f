//! The `fig_sharing` grid's determinism contract, in three layers:
//!
//! * **golden files** — the structured JSON/CSV bytes of a reduced
//!   study grid are pinned under `tests/golden/`, so a change to the
//!   sharing simulation, the report schema, or the serialization shows
//!   up as a reviewable diff (`TIFS_UPDATE_GOLDEN=1` regenerates);
//! * **thread-count invariance** — serial and 8-worker runs produce
//!   byte-identical reports;
//! * **cold == warm** — a second run with the persistent trace *and*
//!   report stores attached is all hits / zero recomputes on both, and
//!   its report bytes equal the cold run's (and the storeless golden
//!   run's: the stores are pure caches).

mod common;

use common::check_golden;
use tifs_experiments::engine::Lab;
use tifs_experiments::figures::fig_sharing::{self, SharingCell};
use tifs_experiments::harness::ExpConfig;
use tifs_experiments::sink;
use tifs_trace::store::{ReportStore, TraceStore};
use tifs_trace::workload::WorkloadSpec;

/// Reduced grid: one workload, 1 and 2 cores, a pinching and a roomy
/// budget — every organization arm (private / quota / pool) and the
/// 1-core degeneracy appear, at unit-test cost.
const CORE_COUNTS: [usize; 2] = [1, 2];
const BUDGETS_KB: [f64; 2] = [4.875, 39.0];

fn small_exp() -> ExpConfig {
    ExpConfig {
        instructions: 4_000,
        warmup: 4_000,
        seed: 3,
    }
}

fn small_lab() -> Lab {
    Lab::build(vec![WorkloadSpec::tiny_test()], small_exp())
}

fn run_small(lab: &Lab, threads: Option<usize>) -> Vec<SharingCell> {
    fig_sharing::run_grid_with_threads(lab, &CORE_COUNTS, &BUDGETS_KB, threads)
}

#[test]
fn sharing_grid_matches_goldens_and_is_thread_count_invariant() {
    let lab = small_lab();
    let serial = fig_sharing::structured(&run_small(&lab, Some(1)));
    let wide = fig_sharing::structured(&run_small(&lab, Some(8)));
    assert_eq!(
        sink::to_json(&serial),
        sink::to_json(&wide),
        "worker count must not change a byte of the sharing report"
    );
    check_golden(&sink::to_json(&serial), "golden_sharing.json");
    check_golden(&sink::to_csv(&serial), "golden_sharing.csv");
}

#[test]
fn sharing_grid_cold_warm_is_all_hits_and_byte_identical() {
    let dir = std::env::temp_dir().join(format!("tifs-sharing-grid-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mk = || {
        small_lab()
            .with_store(TraceStore::new(dir.join("traces")).expect("trace store dir"))
            .with_report_store(ReportStore::new(dir.join("reports")).expect("report store dir"))
    };
    let cold_lab = mk();
    // Exercise the trace store too: the study lab serves analyses off
    // the same workloads, and a warm start must stream those back as
    // well as the timing cells.
    let _ = cold_lab.miss_traces(0);
    let cold = fig_sharing::structured(&run_small(&cold_lab, None));
    let rs = cold_lab.report_store().unwrap().stats();
    let cell_count = (CORE_COUNTS.len() * BUDGETS_KB.len() * fig_sharing::orgs().len()) as u64;
    assert_eq!(
        (rs.hits, rs.misses, rs.writes),
        (0, cell_count, cell_count),
        "cold run must write every sharing cell through"
    );
    let ts = cold_lab.store().unwrap().stats();
    assert_eq!((ts.hits, ts.misses, ts.writes), (0, 1, 1));

    let warm_lab = mk();
    let _ = warm_lab.miss_traces(0);
    let warm = fig_sharing::structured(&run_small(&warm_lab, None));
    let rs = warm_lab.report_store().unwrap().stats();
    assert_eq!(
        (rs.hits, rs.misses, rs.writes),
        (cell_count, 0, 0),
        "warm run must be all hits, zero recomputes"
    );
    let ts = warm_lab.store().unwrap().stats();
    assert_eq!((ts.hits, ts.misses, ts.writes), (1, 0, 0));
    assert_eq!(
        sink::to_json(&cold),
        sink::to_json(&warm),
        "cold and warm sharing reports must be byte-identical"
    );
    assert_eq!(sink::to_csv(&cold), sink::to_csv(&warm));

    // The stores are pure caches: a storeless lab agrees exactly (and
    // therefore so do the committed goldens).
    let plain = fig_sharing::structured(&run_small(&small_lab(), None));
    assert_eq!(sink::to_json(&plain), sink::to_json(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}
