//! Sharing study — beyond the paper: cross-core metadata organization
//! at iso-storage.
//!
//! TIFS provisions its temporal metadata per core; MANA (Ansari et
//! al.) and Triangel (Ainsworth & Mukhanov) show that *sharing and
//! right-sizing* that metadata across cores is where the
//! area/performance trade-off is won. This grid holds the chip's total
//! metadata budget fixed (iso-storage) and sweeps
//!
//! * **organization** — [`MetadataOrg::PrivatePerCore`] (the paper),
//!   shared with static per-core quotas, shared with one fully-shared
//!   pool (both behind [`SHARED_WAYS`] metadata ports);
//! * **total budget** — fractions and multiples of the paper's 156 KB;
//! * **core count** — the same budget stretched across more cores.

use tifs_core::{entries_per_core_for_kb, ImlStorage, MetadataOrg, TifsConfig};
use tifs_sim::config::SystemConfig;

use crate::engine::{ExperimentGrid, Lab, SystemSpec};
use crate::sink::{Cell, StructuredReport};

/// Metadata port ways granted to the shared organizations: a
/// single-ported structure — the cheapest, most area-efficient design
/// point, and the one where sharing's port-contention cost is honest.
pub const SHARED_WAYS: usize = 1;

/// Core counts the default study stretches each budget across.
pub fn default_core_counts() -> Vec<usize> {
    vec![2, 4]
}

/// Total-metadata budgets in KB: 1/16, 1/4, and all of the paper's
/// 156 KB Section 6.3 design point. The fractions are where the
/// capacity axis bites — at 156 KB the logs hold the working set and
/// every organization converges — and where a fully-shared pool can
/// actually rescue a miss-heavy core with the quiet cores' share.
pub fn default_budgets_kb() -> Vec<f64> {
    vec![9.75, 39.0, 156.0]
}

/// The organizations compared in every (budget × core-count) group.
pub fn orgs() -> Vec<MetadataOrg> {
    vec![
        MetadataOrg::PrivatePerCore,
        MetadataOrg::shared_quota(SHARED_WAYS),
        MetadataOrg::shared_pool(SHARED_WAYS),
    ]
}

/// One (workload × cores × budget × organization) measurement.
#[derive(Clone, Debug)]
pub struct SharingCell {
    /// Workload display name.
    pub workload: String,
    /// CMP core count.
    pub cores: usize,
    /// Total chip metadata budget in KB (iso-storage across orgs).
    pub budget_kb: f64,
    /// Metadata organization under test.
    pub org: MetadataOrg,
    /// Aggregate IPC.
    pub ipc: f64,
    /// IPC relative to [`MetadataOrg::PrivatePerCore`] at the same
    /// (workload, cores, budget).
    pub speedup_vs_private: f64,
    /// Miss coverage.
    pub coverage: f64,
    /// Cross-core metadata port conflicts (shared orgs; 0 for private).
    pub port_conflicts: u64,
    /// Total port-wait cycles absorbed by delayed metadata operations.
    pub port_wait: u64,
    /// History entries evicted by shared-pool pressure.
    pub pool_evictions: u64,
}

/// TIFS under `org` with `budget_kb` of total history storage split
/// across `cores` (virtualized into the L2, the proposed design).
pub fn system_for(org: MetadataOrg, budget_kb: f64, cores: usize) -> SystemSpec {
    SystemSpec::tifs(
        format!("{budget_kb}KB/{}", org.label()),
        TifsConfig {
            storage: ImlStorage::Virtualized {
                entries_per_core: entries_per_core_for_kb(budget_kb, cores),
            },
            metadata: org,
            ..TifsConfig::virtualized()
        },
    )
}

/// Runs the default study grid on a lab's workloads.
pub fn run_on(lab: &Lab) -> Vec<SharingCell> {
    run_grid_with_threads(lab, &default_core_counts(), &default_budgets_kb(), None)
}

/// Runs the study over explicit core counts and budgets (tests pin a
/// reduced grid through here), with an explicit worker count (`None` =
/// machine parallelism / `TIFS_THREADS`). The determinism suite pins that
/// every worker count produces byte-identical structured reports.
pub fn run_grid_with_threads(
    lab: &Lab,
    core_counts: &[usize],
    budgets_kb: &[f64],
    threads: Option<usize>,
) -> Vec<SharingCell> {
    let mut cells = Vec::new();
    for &cores in core_counts {
        let sys = SystemConfig {
            num_cores: cores,
            ..SystemConfig::table2()
        };
        let columns: Vec<(f64, MetadataOrg, SystemSpec)> = budgets_kb
            .iter()
            .flat_map(|&kb| {
                orgs()
                    .into_iter()
                    .map(move |org| (kb, org, system_for(org, kb, cores)))
            })
            .collect();
        let mut grid = ExperimentGrid::new(*lab.exp())
            .with_system_config(sys)
            .systems(columns.iter().map(|(_, _, s)| s.clone()));
        if let Some(n) = threads {
            grid = grid.threads(n);
        }
        let results = grid.run_on(lab);
        for row in results.iter_rows() {
            for (kb, org, spec) in &columns {
                let report = row.report(spec.clone()).expect("cell in grid");
                let private = row
                    .report(system_for(MetadataOrg::PrivatePerCore, *kb, cores))
                    .expect("private baseline in grid");
                let base_ipc = private.aggregate_ipc();
                cells.push(SharingCell {
                    workload: row.workload().to_string(),
                    cores,
                    budget_kb: *kb,
                    org: *org,
                    ipc: report.aggregate_ipc(),
                    speedup_vs_private: if base_ipc > 0.0 {
                        report.aggregate_ipc() / base_ipc
                    } else {
                        0.0
                    },
                    coverage: report.coverage(),
                    port_conflicts: report
                        .prefetcher_counter("meta_port_conflicts")
                        .unwrap_or(0.0) as u64,
                    port_wait: report.prefetcher_counter("meta_port_wait").unwrap_or(0.0) as u64,
                    pool_evictions: report
                        .prefetcher_counter("iml_pool_evictions")
                        .unwrap_or(0.0) as u64,
                });
            }
        }
    }
    cells
}

/// Canonical structured form: one row per measured cell, with the pooled
/// organization's mean speedup over private per (cores, budget) as notes.
pub fn structured(cells: &[SharingCell]) -> StructuredReport {
    let mut report = StructuredReport::new(
        "fig_sharing",
        "Sharing study — metadata organization x total budget x cores at iso-storage",
        [
            "workload",
            "cores",
            "budget_kb",
            "org",
            "ipc",
            "speedup_vs_private",
            "coverage",
            "port_conflicts",
            "port_wait",
            "pool_evictions",
        ],
    );
    for c in cells {
        report.push_row(vec![
            Cell::from(c.workload.as_str()),
            Cell::from(c.cores),
            Cell::Num(c.budget_kb),
            Cell::from(c.org.label()),
            Cell::Num(c.ipc),
            Cell::Num(c.speedup_vs_private),
            Cell::Num(c.coverage),
            Cell::from(c.port_conflicts),
            Cell::from(c.port_wait),
            Cell::from(c.pool_evictions),
        ]);
    }
    let pool = MetadataOrg::shared_pool(SHARED_WAYS);
    let mut groups: Vec<(usize, f64)> = Vec::new();
    for c in cells.iter().filter(|c| c.org == pool) {
        if !groups.contains(&(c.cores, c.budget_kb)) {
            groups.push((c.cores, c.budget_kb));
        }
    }
    for (cores, kb) in groups {
        let pooled: Vec<f64> = cells
            .iter()
            .filter(|c| c.org == pool && c.cores == cores && c.budget_kb == kb)
            .map(|c| c.speedup_vs_private)
            .collect();
        let mean = pooled.iter().sum::<f64>() / pooled.len() as f64;
        report.push_note(format!(
            "shared-pool vs private @ {cores} cores, {kb} KB: mean {mean:.3}"
        ));
    }
    report
}
