//! Tables I and II — workload and system parameters.

use tifs_sim::config::SystemConfig;

use crate::engine::Lab;
use crate::report::render_table;
use crate::sink::{Cell, StructuredReport};

/// Renders Table I for the lab's workloads: the synthetic workload suite,
/// with the generated instruction footprints (the paper's table lists the
/// commercial setups these mirror).
pub fn render_table1_on(lab: &Lab) -> String {
    let rows: Vec<Vec<String>> = (0..lab.len())
        .map(|i| {
            let spec = lab.spec(i);
            let w = lab.workload(i);
            vec![
                spec.name.to_string(),
                format!("{:?}", spec.class),
                format!("{} KB", w.program.text_bytes() / 1024),
                spec.n_txn_types.to_string(),
                spec.path_len.to_string(),
                spec.divergence_every.to_string(),
                format!("{}", spec.trap_period),
            ]
        })
        .collect();
    format!(
        "Table I — synthetic commercial workload suite (seed {})\n{}",
        lab.exp().seed,
        render_table(
            &[
                "workload",
                "class",
                "text",
                "txn types",
                "path len",
                "diverge every",
                "trap period"
            ],
            &rows
        )
    )
}

/// Canonical structured form of Table I.
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

/// Renders Table II: system parameters.
pub fn render_table2() -> String {
    let rows: Vec<Vec<String>> = SystemConfig::table2()
        .table_rows()
        .into_iter()
        .map(|(k, v)| vec![k, v])
        .collect();
    format!(
        "Table II — system parameters\n{}",
        render_table(&["component", "configuration"], &rows)
    )
}
