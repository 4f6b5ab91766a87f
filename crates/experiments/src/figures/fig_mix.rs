//! Workload-mix study — beyond the paper: heterogeneous multi-tenant
//! fleets on the metadata-sharing axis.
//!
//! The paper evaluates homogeneous CMPs: every core runs the same
//! workload, so per-core metadata demand is symmetric and the private
//! provisioning of Section 6.3 is never stressed asymmetrically. Real
//! consolidated servers are not symmetric — tenants differ in footprint
//! and duty cycle, and schedulers migrate them (flushing a core's warmed
//! prefetcher state). This grid makes the workload mix a first-class
//! axis and asks where pooled metadata beats private provisioning:
//!
//! * **scenario** — `uniform` (the paper's homogeneous regime),
//!   `skewed` (one full-duty tenant, the rest duty-cycled to
//!   [`SKEW_DUTY`]: asymmetric demand on symmetric hardware), and
//!   `consolidated` (the Table I fleet packed one-per-core);
//! * **flush** — context switches every ~[`FLUSH_PERIOD`] instructions
//!   on every tenant; each switch invalidates the core's TIFS history,
//!   Index Table, and in-flight streams, and the simulator bills the
//!   recovery window (cycles and misses until coverage returns to its
//!   pre-flush running mean) as `refill_cycles` / `refill_misses`;
//! * **organization** — private per-core, shared with per-core quotas,
//!   and one fully-shared pool at 1 and [`WIDE_WAYS`] metadata ports,
//!   all at iso-storage, with the Index Table capacity pooled alongside
//!   the history ([`system_for`] bounds it to the same per-core entry
//!   budget the history gets).
//!
//! ## Measured outcome (default grid, 2M/2M instructions, seed 42)
//!
//! Pooling wins where per-core demand is *heterogeneous*, and the win
//! shows up first in coverage, only weakly in aggregate IPC:
//!
//! * **`consolidated`** is the pool's best case: six different
//!   footprints pack badly into equal private shares, and the pool's
//!   globally-oldest eviction reallocates them — coverage **0.597 vs
//!   0.440** private at 39 KB (flush off; **1.014x** IPC, the grid's
//!   largest IPC win) and 0.263 vs 0.175 at 9.75 KB (1.003x).
//! * **`skewed`** pools win coverage too (0.337 vs 0.287 at 9.75 KB
//!   flush off) but only ~1.001x IPC: the duty-cycled tenants spend
//!   3/4 of their quanta in the resident idle loop at near-ideal IPC,
//!   so the *aggregate* numerator is dominated by cores whose IPC the
//!   metadata cannot move. The asymmetric-demand benefit is real but
//!   reads in the coverage column, not the IPC column.
//! * **`uniform`** demand is the designed wash: quota sharing is
//!   byte-identical to private (speedup exactly 1.000), and the pool
//!   is within ±0.5% everywhere — symmetric tenants have no idle
//!   share to reclaim, leaving only port contention (visible as
//!   `port_wait`, halved by the [`WIDE_WAYS`]-ported arm) against
//!   slightly better reach.
//! * **Flush arms** bill heavily (~1.1–3.8M refill cycles per cell at
//!   period 50k) and compress organization differences: post-flush
//!   recovery cost is dominated by re-missing the working set, which
//!   no capacity policy avoids — at 39 KB flush-on every scenario's
//!   orgs converge to within 0.1%.
//!
//! The honest headline is therefore *negative for IPC, positive for
//! coverage*: pooled metadata at iso-storage buys substantial miss
//! coverage under heterogeneous fleets (up to +36% relative) but the
//! fetch-limited IPC model and idle-core dilution damp it to <= 1.4%
//! aggregate IPC on this CMP. Private provisioning is near-optimal
//! for the paper's homogeneous evaluation, exactly as published.

use tifs_core::{entries_per_core_for_kb, ImlStorage, MetadataOrg, TifsConfig};
use tifs_sim::config::SystemConfig;
use tifs_trace::workload::{CellWorkload, WorkloadSpec};

use crate::engine::{ExperimentGrid, Lab, SystemSpec};
use crate::sink::{Cell, StructuredReport};

/// Duty cycle of the throttled tenants in the `skewed` scenario: they
/// spend 1/4 of their scheduling quanta on transactions and idle-spin
/// the rest, so the hot core generates ~4x their metadata demand.
pub const SKEW_DUTY: f64 = 0.25;

/// Mean instructions between context switches in the flush arm. Short
/// enough that every cell sees many switches within the default budget,
/// long enough that recovery windows can close between them.
pub const FLUSH_PERIOD: u64 = 50_000;

/// Port count of the widened shared organization (the `ways > 1` arm:
/// where single-ported sharing loses to contention, this shows how much
/// of the loss is ports rather than capacity policy).
pub const WIDE_WAYS: usize = 2;

/// Core count of the default study CMP.
pub const MIX_CORES: usize = 4;

/// Total-metadata budgets in KB: the pinched 1/16 and the 1/4 of the
/// paper's 156 KB design point — the region where capacity is scarce
/// enough that *where* it sits (private vs pooled) decides coverage. At
/// the full 156 KB every organization holds every tenant's working set
/// and the axis goes flat (shown by `fig_sharing`), so the default mix
/// grid omits it.
pub fn default_budgets_kb() -> Vec<f64> {
    vec![9.75, 39.0]
}

/// The organizations compared in every (scenario × flush × budget)
/// group.
pub fn orgs() -> Vec<MetadataOrg> {
    vec![
        MetadataOrg::PrivatePerCore,
        MetadataOrg::shared_quota(1),
        MetadataOrg::shared_pool(1),
        MetadataOrg::shared_pool(WIDE_WAYS),
    ]
}

/// The three demand scenarios at `cores` cores: `uniform` runs `base`
/// everywhere, `skewed` runs `base` at full duty on core 0 and at
/// [`SKEW_DUTY`] elsewhere, `consolidated` packs `fleet` one tenant per
/// core (cycling when `fleet` is shorter than the CMP).
pub fn scenarios_from(
    base: &WorkloadSpec,
    fleet: &[WorkloadSpec],
    cores: usize,
) -> Vec<(String, CellWorkload)> {
    let skewed: Vec<WorkloadSpec> = (0..cores)
        .map(|c| {
            if c == 0 {
                base.clone()
            } else {
                base.clone().with_duty_cycle(SKEW_DUTY)
            }
        })
        .collect();
    let consolidated: Vec<WorkloadSpec> =
        (0..cores).map(|c| fleet[c % fleet.len()].clone()).collect();
    vec![
        (
            "uniform".to_string(),
            CellWorkload::Homogeneous(base.clone()),
        ),
        ("skewed".to_string(), CellWorkload::Mix(skewed)),
        ("consolidated".to_string(), CellWorkload::Mix(consolidated)),
    ]
}

/// The default scenarios: OLTP DB2 as the hot/uniform tenant, the full
/// Table I fleet as the consolidation mix.
pub fn default_scenarios(cores: usize) -> Vec<(String, CellWorkload)> {
    scenarios_from(&WorkloadSpec::oltp_db2(), &WorkloadSpec::all_six(), cores)
}

/// `cell` with every tenant context-switching at ~`period` instructions.
fn with_flush(cell: &CellWorkload, period: u64) -> CellWorkload {
    match cell {
        CellWorkload::Homogeneous(spec) => {
            CellWorkload::Homogeneous(spec.clone().with_ctx_switch_period(period))
        }
        CellWorkload::Mix(specs) => CellWorkload::Mix(
            specs
                .iter()
                .map(|s| s.clone().with_ctx_switch_period(period))
                .collect(),
        ),
    }
}

/// One (scenario × flush × budget × organization) measurement.
#[derive(Clone, Debug)]
pub struct MixCell {
    /// Scenario display name (`uniform` / `skewed` / `consolidated`).
    pub scenario: String,
    /// Whether tenants context-switch (flush arm).
    pub flush: bool,
    /// CMP core count.
    pub cores: usize,
    /// Total chip metadata budget in KB (iso-storage across orgs).
    pub budget_kb: f64,
    /// Metadata organization under test.
    pub org: MetadataOrg,
    /// Aggregate IPC.
    pub ipc: f64,
    /// IPC relative to [`MetadataOrg::PrivatePerCore`] at the same
    /// (scenario, flush, budget).
    pub speedup_vs_private: f64,
    /// Miss coverage.
    pub coverage: f64,
    /// Metadata flushes absorbed (context switches across all cores).
    pub flushes: f64,
    /// Cycles spent inside post-flush recovery windows.
    pub refill_cycles: f64,
    /// Demand misses taken inside post-flush recovery windows.
    pub refill_misses: f64,
    /// Total port-wait cycles absorbed by delayed metadata operations.
    pub port_wait: f64,
    /// History entries evicted by shared-pool pressure.
    pub pool_evictions: f64,
    /// Index Table invalidations (capacity evictions of the bounded,
    /// pooled table plus flush-driven invalidations).
    pub index_invalidations: f64,
}

/// TIFS under `org` with `budget_kb` of total history storage split
/// across `cores`, the Index Table bounded to the same per-core entry
/// budget (pooling metadata pools the front end too — an unbounded
/// index under a bounded history would credit the shared orgs with free
/// area).
pub fn system_for(org: MetadataOrg, budget_kb: f64, cores: usize) -> SystemSpec {
    let entries = entries_per_core_for_kb(budget_kb, cores);
    SystemSpec::tifs(
        format!("{budget_kb}KB/{}", org.label()),
        TifsConfig {
            storage: ImlStorage::Virtualized {
                entries_per_core: entries,
            },
            metadata: org,
            index_capacity: Some(entries),
            ..TifsConfig::virtualized()
        },
    )
}

/// Runs the default study grid: [`default_scenarios`] at [`MIX_CORES`]
/// cores over [`default_budgets_kb`].
pub fn run_on(lab: &Lab) -> Vec<MixCell> {
    run_grid_with_threads(
        lab,
        MIX_CORES,
        &default_budgets_kb(),
        &default_scenarios(MIX_CORES),
        FLUSH_PERIOD,
        None,
    )
}

/// Runs the study over an explicit core count, budgets, scenarios, and
/// flush period (tests pin a reduced grid through here — at unit-test
/// instruction budgets the default [`FLUSH_PERIOD`] would almost never
/// fire), with an explicit worker count (`None` = machine parallelism /
/// `TIFS_THREADS`). The determinism suite pins that every worker count
/// produces byte-identical structured reports.
pub fn run_grid_with_threads(
    lab: &Lab,
    cores: usize,
    budgets_kb: &[f64],
    scenarios: &[(String, CellWorkload)],
    flush_period: u64,
    threads: Option<usize>,
) -> Vec<MixCell> {
    let sys = SystemConfig {
        num_cores: cores,
        ..SystemConfig::table2()
    };
    // Rows: scenario × flush. Columns: budget × organization.
    let rows: Vec<(String, bool, CellWorkload)> = scenarios
        .iter()
        .flat_map(|(name, cell)| {
            [
                (name.clone(), false, cell.clone()),
                (name.clone(), true, with_flush(cell, flush_period)),
            ]
        })
        .collect();
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
        .workloads(rows.iter().map(|(_, _, cell)| cell.clone()))
        .systems(columns.iter().map(|(_, _, s)| s.clone()));
    if let Some(n) = threads {
        grid = grid.threads(n);
    }
    let results = grid.run_on(lab);
    let mut out = Vec::with_capacity(rows.len() * columns.len());
    for ((scenario, flush, _), row) in rows.iter().zip(results.iter_rows()) {
        for (kb, org, spec) in &columns {
            let report = row.report(spec.clone()).expect("cell in grid");
            let private = row
                .report(system_for(MetadataOrg::PrivatePerCore, *kb, cores))
                .expect("private baseline in grid");
            let base_ipc = private.aggregate_ipc();
            let sum = |f: fn(&tifs_sim::stats::CoreStats) -> u64| {
                report.cores.iter().map(|c| f(c) as f64).sum::<f64>()
            };
            out.push(MixCell {
                scenario: scenario.clone(),
                flush: *flush,
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
                flushes: sum(|c| c.flushes),
                refill_cycles: sum(|c| c.refill_cycles),
                refill_misses: sum(|c| c.refill_misses),
                port_wait: report.prefetcher_counter("meta_port_wait").unwrap_or(0.0),
                pool_evictions: report
                    .prefetcher_counter("iml_pool_evictions")
                    .unwrap_or(0.0),
                index_invalidations: report
                    .prefetcher_counter("index_invalidations")
                    .unwrap_or(0.0),
            });
        }
    }
    out
}

/// Canonical structured form: one row per measured cell, with the
/// single-ported pool's mean speedup over private per (scenario, flush,
/// budget) as notes.
pub fn structured(cells: &[MixCell]) -> StructuredReport {
    let mut report = StructuredReport::new(
        "fig_mix",
        "Workload-mix study — demand scenario x flush x budget x metadata organization at iso-storage",
        [
            "scenario",
            "flush",
            "cores",
            "budget_kb",
            "org",
            "ipc",
            "speedup_vs_private",
            "coverage",
            "flushes",
            "refill_cycles",
            "refill_misses",
            "port_wait",
            "pool_evictions",
            "index_invalidations",
        ],
    );
    for c in cells {
        report.push_row(vec![
            Cell::from(c.scenario.as_str()),
            Cell::from(if c.flush { "on" } else { "off" }),
            Cell::from(c.cores),
            Cell::Num(c.budget_kb),
            Cell::from(c.org.label()),
            Cell::Num(c.ipc),
            Cell::Num(c.speedup_vs_private),
            Cell::Num(c.coverage),
            Cell::Num(c.flushes),
            Cell::Num(c.refill_cycles),
            Cell::Num(c.refill_misses),
            Cell::Num(c.port_wait),
            Cell::Num(c.pool_evictions),
            Cell::Num(c.index_invalidations),
        ]);
    }
    let pool = MetadataOrg::shared_pool(1);
    let mut groups: Vec<(&str, bool, f64)> = Vec::new();
    for c in cells.iter().filter(|c| c.org == pool) {
        let g = (c.scenario.as_str(), c.flush, c.budget_kb);
        if !groups.contains(&g) {
            groups.push(g);
        }
    }
    for (scenario, flush, kb) in groups {
        let pooled: Vec<f64> = cells
            .iter()
            .filter(|c| {
                c.org == pool && c.scenario == scenario && c.flush == flush && c.budget_kb == kb
            })
            .map(|c| c.speedup_vs_private)
            .collect();
        let mean = pooled.iter().sum::<f64>() / pooled.len() as f64;
        report.push_note(format!(
            "shared-pool vs private @ {scenario}, flush {}, {kb} KB: mean {mean:.3}",
            if flush { "on" } else { "off" }
        ));
    }
    report
}
