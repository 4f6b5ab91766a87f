//! The `fig_mix` grid's determinism contract, in three layers (the
//! same contract `sharing_grid` pins for `fig_sharing`):
//!
//! * **golden files** — the structured JSON/CSV bytes of a reduced
//!   study grid are pinned under `tests/golden/`, so a change to the
//!   mix simulation, the flush/refill accounting, the report schema, or
//!   the serialization shows up as a reviewable diff
//!   (`TIFS_UPDATE_GOLDEN=1` regenerates);
//! * **thread-count invariance** — serial and 8-worker runs produce
//!   byte-identical reports;
//! * **cold == warm** — a second run with the persistent report store
//!   attached is all hits / zero recomputes, and its report bytes equal
//!   the cold run's (and the storeless golden run's: the store is a
//!   pure cache).

mod common;

use common::check_golden;
use tifs_experiments::engine::Lab;
use tifs_experiments::figures::fig_mix::{self, MixCell};
use tifs_experiments::harness::ExpConfig;
use tifs_experiments::sink;
use tifs_trace::store::{hash_workload_spec, Fingerprint, ReportStore};
use tifs_trace::workload::{CellWorkload, Workload, WorkloadSpec};

/// Reduced grid: 2 cores, one pinching budget, and a two-tenant fleet
/// built from `tiny_server` variants — every scenario arm (uniform /
/// skewed / consolidated), both flush arms, and every organization
/// appear, at unit-test cost. `tiny_server`'s text fits the L1-I: its
/// misses are first touches within a core's first 100k instructions.
/// The 4k/4k grid runs inside that cold phase, so flush recovery has
/// misses to measure.
const CORES: usize = 2;
const BUDGETS_KB: [f64; 1] = [4.875];

/// Unit-test flush period: short enough that every flush arm sees many
/// context switches within the reduced instruction budget.
const TEST_FLUSH_PERIOD: u64 = 1_500;

fn small_exp() -> ExpConfig {
    ExpConfig {
        instructions: 4_000,
        warmup: 4_000,
        seed: 3,
    }
}

fn small_lab() -> Lab {
    Lab::build(Vec::new(), small_exp())
}

fn small_scenarios() -> Vec<(String, CellWorkload)> {
    let base = WorkloadSpec::tiny_server();
    let fleet = [
        WorkloadSpec::tiny_server(),
        WorkloadSpec::tiny_server().with_duty_cycle(0.5),
    ];
    fig_mix::scenarios_from(&base, &fleet, CORES)
}

fn run_small(lab: &Lab, threads: Option<usize>) -> Vec<MixCell> {
    fig_mix::run_grid_with_threads(
        lab,
        CORES,
        &BUDGETS_KB,
        &small_scenarios(),
        TEST_FLUSH_PERIOD,
        threads,
    )
}

#[test]
fn mix_grid_matches_goldens_and_is_thread_count_invariant() {
    let lab = small_lab();
    let serial = fig_mix::structured(&run_small(&lab, Some(1)));
    let wide = fig_mix::structured(&run_small(&lab, Some(8)));
    assert_eq!(
        sink::to_json(&serial),
        sink::to_json(&wide),
        "worker count must not change a byte of the mix report"
    );
    check_golden(&sink::to_json(&serial), "golden_mix.json");
    check_golden(&sink::to_csv(&serial), "golden_mix.csv");
}

#[test]
fn mix_grid_flush_arm_actually_flushes_and_bills_refill() {
    // The grid's flush arm must measure something: context switches
    // occur, recovery windows open, and both stay zero in the flush-off
    // arm (the degenerate path the equivalence suite pins byte-exactly).
    let cells = run_small(&small_lab(), None);
    for c in &cells {
        if c.flush {
            assert!(c.flushes > 0, "{}: flush arm saw no flushes", c.scenario);
            assert!(
                c.refill_cycles > 0,
                "{}: flushes billed no refill cycles",
                c.scenario
            );
        } else {
            assert_eq!(c.flushes, 0, "{}: flush-off arm flushed", c.scenario);
            assert_eq!(c.refill_cycles, 0);
            assert_eq!(c.refill_misses, 0);
        }
    }
}

#[test]
fn mix_grid_cold_warm_is_all_hits_and_byte_identical() {
    let dir = std::env::temp_dir().join(format!("tifs-mix-grid-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mk =
        || small_lab().with_report_store(ReportStore::new(dir.join("reports")).expect("store dir"));
    let cold_lab = mk();
    let cold = fig_mix::structured(&run_small(&cold_lab, None));
    let rs = cold_lab.report_store().unwrap().stats();
    // scenarios x {flush off, on} x budgets x orgs.
    let cell_count =
        (small_scenarios().len() * 2 * BUDGETS_KB.len() * fig_mix::orgs().len()) as u64;
    assert_eq!(
        (rs.hits, rs.misses, rs.writes),
        (0, cell_count, cell_count),
        "cold run must write every mix cell through"
    );

    let warm_lab = mk();
    let warm = fig_mix::structured(&run_small(&warm_lab, None));
    let rs = warm_lab.report_store().unwrap().stats();
    assert_eq!(
        (rs.hits, rs.misses, rs.writes),
        (cell_count, 0, 0),
        "warm run must be all hits, zero recomputes"
    );
    assert_eq!(
        sink::to_json(&cold),
        sink::to_json(&warm),
        "cold and warm mix reports must be byte-identical"
    );
    assert_eq!(sink::to_csv(&cold), sink::to_csv(&warm));

    // The store is a pure cache: a storeless lab agrees exactly (and
    // therefore so do the committed goldens).
    let plain = fig_mix::structured(&run_small(&small_lab(), None));
    assert_eq!(sink::to_json(&plain), sink::to_json(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The rows `fig_mix::run_on` builds (the default scenarios at
/// `MIX_CORES`, each with and without flush) share one program image per
/// shape: slots whose specs differ only in slot, duty cycle or
/// context-switch period walk one image, and different shapes never do.
#[test]
fn default_mix_rows_share_one_image_per_program_shape() {
    let flushed = |spec: &WorkloadSpec| spec.clone().with_ctx_switch_period(fig_mix::FLUSH_PERIOD);
    let cells: Vec<CellWorkload> = fig_mix::default_scenarios(fig_mix::MIX_CORES)
        .into_iter()
        .flat_map(|(_, cell)| {
            let with_flush = match &cell {
                CellWorkload::Homogeneous(spec) => CellWorkload::Homogeneous(flushed(spec)),
                CellWorkload::Mix(specs) => CellWorkload::Mix(specs.iter().map(flushed).collect()),
            };
            [cell, with_flush]
        })
        .collect();
    let lab = Lab::build(
        Vec::new(),
        ExpConfig {
            seed: 42,
            ..small_exp()
        },
    );
    let rows = lab.cell_programs(&cells, &vec![true; cells.len()], 2);
    let slots: Vec<&Workload> = rows
        .iter()
        .flat_map(|row| row.as_ref().expect("every row is needed").slots())
        .collect();
    assert_eq!(slots.len(), 14);
    // The spec with the two knobs the builder reads into ExecConfig alone
    // at their defaults.
    let shape = |spec: &WorkloadSpec| {
        let mut h = Fingerprint::new();
        hash_workload_spec(
            &mut h,
            &WorkloadSpec {
                duty_cycle: 1.0,
                ctx_switch_period: 0,
                ..spec.clone()
            },
        );
        h.finish()
    };
    let mut images: Vec<&Workload> = Vec::new();
    for (i, a) in slots.iter().enumerate() {
        for b in &slots[i + 1..] {
            assert_eq!(
                a.program.shares_image(&b.program),
                shape(&a.spec) == shape(&b.spec),
                "{} and {}",
                a.spec.name,
                b.spec.name
            );
        }
        if !images.iter().any(|w| w.program.shares_image(&a.program)) {
            images.push(a);
        }
    }
    let names: Vec<&str> = images.iter().map(|w| w.spec.name).collect();
    assert_eq!(names, ["OLTP DB2", "OLTP Oracle", "DSS Qry2", "DSS Qry17"]);
}
