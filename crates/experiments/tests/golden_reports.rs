//! Golden-file tests: the structured report serialization is pinned
//! byte-for-byte against committed artifacts, so any change to the JSON
//! or CSV encodings — key order, float formatting, row layout — shows up
//! as a reviewable diff instead of silently breaking cross-PR report
//! diffing. The console table rendered from the same report is pinned
//! the same way.
//!
//! To regenerate after an intentional format change:
//!
//! ```sh
//! TIFS_UPDATE_GOLDEN=1 cargo test -p tifs-experiments --test golden_reports
//! ```

use tifs_experiments::engine::ExperimentGrid;
use tifs_experiments::harness::{ExpConfig, SystemKind};
use tifs_experiments::sink::{self, StructuredReport};
use tifs_sim::config::SystemConfig;
use tifs_trace::workload::WorkloadSpec;

fn golden_report() -> StructuredReport {
    // Small and fully deterministic: one workload, two systems, fixed
    // seed. The committed bytes double as a regression test on the
    // simulation itself — if the numbers move, a cell's behaviour moved.
    let grid = ExperimentGrid::new(ExpConfig {
        instructions: 30_000,
        warmup: 30_000,
        seed: 3,
    })
    .with_system_config(SystemConfig::single_core())
    .workloads([WorkloadSpec::web_zeus()])
    .systems([SystemKind::NextLine, SystemKind::TifsVirtualized]);
    sink::grid_report(
        "golden_smoke",
        "Golden smoke grid (Web Zeus, single core, seed 3)",
        &grid.run(),
    )
}

fn check_golden(rendered: &str, file: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    // Same disable convention as TIFS_TRACE_STORE / TIFS_RESULTS: falsy
    // values must not silently rewrite the goldens and pass vacuously.
    let update = matches!(
        std::env::var("TIFS_UPDATE_GOLDEN").as_deref(),
        Ok(v) if !matches!(v, "" | "0" | "off" | "none" | "false")
    );
    if update {
        std::fs::write(&path, rendered).expect("update golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        rendered, expected,
        "{} diverged from its golden bytes; if intentional, regenerate with \
         TIFS_UPDATE_GOLDEN=1 cargo test -p tifs-experiments --test golden_reports",
        file
    );
}

#[test]
fn grid_json_matches_golden_byte_for_byte() {
    check_golden(&sink::to_json(&golden_report()), "golden_smoke.json");
}

#[test]
fn grid_csv_matches_golden_byte_for_byte() {
    check_golden(&sink::to_csv(&golden_report()), "golden_smoke.csv");
}

#[test]
fn grid_text_matches_golden_byte_for_byte() {
    check_golden(&sink::to_text(&golden_report()), "golden_smoke.txt");
}
