//! Tables I and II — workload and system parameters.

use tifs_sim::config::SystemConfig;

use crate::engine::Lab;
use crate::sink::{Cell, StructuredReport};

/// Canonical structured form of Table I: the synthetic workload suite,
/// with the generated instruction footprints (the paper's table lists the
/// commercial setups these mirror).
pub fn structured_table1(lab: &Lab) -> StructuredReport {
    let mut report = StructuredReport::new(
        "table1",
        "Table I — synthetic commercial workload suite",
        [
            "workload",
            "class",
            "text_bytes",
            "txn_types",
            "path_len",
            "divergence_every",
            "trap_period",
        ],
    );
    for i in 0..lab.len() {
        let spec = lab.spec(i);
        report.push_row(vec![
            Cell::from(spec.name),
            Cell::Text(format!("{:?}", spec.class)),
            Cell::from(lab.workload(i).program.text_bytes()),
            Cell::from(spec.n_txn_types),
            Cell::from(spec.path_len),
            Cell::from(spec.divergence_every),
            Cell::from(spec.trap_period),
        ]);
    }
    report
}

/// Canonical structured form of Table II.
pub fn structured_table2() -> StructuredReport {
    let mut report = StructuredReport::new(
        "table2",
        "Table II — system parameters",
        ["component", "configuration"],
    );
    for (k, v) in SystemConfig::table2().table_rows() {
        report.push_row(vec![Cell::Text(k), Cell::Text(v)]);
    }
    report
}
