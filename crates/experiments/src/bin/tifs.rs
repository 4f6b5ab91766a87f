//! The experiment driver: one subcommand per table, figure and study of
//! the evaluation.
//!
//! ```sh
//! cargo run --release -p tifs-experiments --bin tifs -- <subcommand> \
//!     [--instructions N] [--warmup N] [--seed N]
//! ```
//!
//! Every subcommand builds its workloads once into a [`Lab`] with the
//! persistent trace store (`TIFS_TRACE_STORE`, default
//! `.tifs-cache/traces`) and report store (`TIFS_REPORT_STORE`, default
//! `.tifs-cache/reports`) attached, so a second run is a pure warm start:
//! the trace analyses stream their miss traces back from disk and every
//! timing cell's `SimReport` is served from the report store.
//! `TIFS_STORE_MAX_BYTES` bounds each store with LRU GC, and
//! `TIFS_THREADS` overrides the worker count. Each table and figure
//! prints its report as a table (`sink::to_text`) and writes it as
//! canonical JSON/CSV (`TIFS_RESULTS`, default `results/`),
//! byte-identical between cold and warm runs, and the run ends with one
//! `[trace store]` and one `[report store]` line of store statistics.
//! Wall-clock timings go to stderr, so stdout depends only on the
//! subcommand, the budgets and the seed, apart from those two lines.
//!
//! `calibrate` exits 1 when a workload drifts out of its Table I band;
//! bad arguments and unknown subcommands print the usage and exit 2.

#![expect(
    clippy::disallowed_methods,
    reason = "each phase is timed for its elapsed line on stderr, never for stdout or \
              results/"
)]

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use tifs_core::{ImlStorage, TifsConfig};
use tifs_experiments::calibration::{self, CALIBRATION_INSTRUCTIONS};
use tifs_experiments::engine::{ExperimentGrid, Lab, SystemSpec};
use tifs_experiments::figures::{
    fig01, fig03, fig05, fig06, fig10, fig11, fig12, fig13, fig_mix, fig_sharing, tables,
};
use tifs_experiments::harness::{ExpConfig, SystemKind};
use tifs_experiments::sink::{self, Cell, StructuredReport};
use tifs_trace::store::StoreStats;
use tifs_trace::workload::WorkloadSpec;

const USAGE: &str = "\
usage: tifs <subcommand> [--instructions N] [--warmup N] [--seed N]

subcommands:
  all            every table and figure of the evaluation, on one lab
  table1 table2  the workload suite and the system parameters
  fig01 fig03 fig05 fig06 fig10 fig11 fig12 fig13
                 one figure
  sharing        the metadata-sharing study
  mix            the workload-mix study
  ablations      TIFS design-space ablations on OLTP DB2
  calibrate      the Table I calibration summary; exits 1 on drift

Budgets are per core and default to 2000000 measured and 2000000
warmup instructions at seed 42; -n, -w and -s are short forms, and
`_` may separate digits.";

type Command = (
    &'static str,
    fn() -> Vec<WorkloadSpec>,
    fn(&Lab) -> ExitCode,
);

/// Every subcommand: its name, the workloads its lab builds, and its run.
const COMMANDS: [Command; 15] = [
    ("all", WorkloadSpec::all_six, all),
    // Table I's text footprints depend on the seed, so it heads the table.
    ("table1", WorkloadSpec::all_six, |lab| {
        budget_line(lab.exp());
        table1(lab)
    }),
    ("table2", Vec::new, table2),
    ("fig01", WorkloadSpec::all_six, |lab| {
        figure(lab, fig01::run_on, fig01::structured)
    }),
    ("fig03", WorkloadSpec::all_six, |lab| {
        figure(lab, fig03::run_on, fig03::structured)
    }),
    ("fig05", WorkloadSpec::all_six, |lab| {
        figure(lab, fig05::run_on, fig05::structured)
    }),
    ("fig06", WorkloadSpec::all_six, |lab| {
        figure(lab, fig06::run_on, fig06::structured)
    }),
    ("fig10", WorkloadSpec::all_six, |lab| {
        figure(lab, fig10::run_on, fig10::structured)
    }),
    ("fig11", WorkloadSpec::all_six, |lab| {
        figure(lab, fig11::run_on, fig11::structured)
    }),
    ("fig12", WorkloadSpec::all_six, |lab| {
        figure(lab, fig12::run_on, fig12::structured)
    }),
    ("fig13", WorkloadSpec::all_six, |lab| {
        figure(lab, fig13::run_on, fig13::structured)
    }),
    ("sharing", WorkloadSpec::all_six, |lab| {
        study(lab, "metadata-sharing", |lab| {
            figure(lab, fig_sharing::run_on, fig_sharing::structured)
        })
    }),
    // The mix study's rows build their own programs, so its lab is empty.
    ("mix", Vec::new, |lab| {
        study(lab, "workload-mix", |lab| {
            figure(lab, fig_mix::run_on, fig_mix::structured)
        })
    }),
    ("ablations", || vec![WorkloadSpec::oltp_db2()], ablations),
    ("calibrate", WorkloadSpec::all_six, calibrate),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.split_first() {
        None => Err("missing subcommand".to_string()),
        Some((name, flags)) => match COMMANDS.iter().find(|(command, ..)| command == name) {
            None => Err(format!("unknown subcommand `{name}`")),
            Some(command) => ExpConfig::parse(flags).map(|cfg| (command, cfg)),
        },
    };
    let ((_, workloads, run), cfg) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("tifs: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let lab = Lab::build(workloads(), cfg).with_store_from_env();
    let code = run(&lab);
    if let Some(store) = lab.store() {
        footer("trace", store.stats(), store.root());
    }
    if let Some(store) = lab.report_store() {
        footer("report", store.stats(), store.root());
    }
    code
}

fn footer(store: &str, s: StoreStats, root: &Path) {
    println!(
        "[{store} store] {} hits, {} misses, {} writes, {} evictions, {} gc-evictions ({})",
        s.hits,
        s.misses,
        s.writes,
        s.evictions,
        s.gc_evictions,
        root.display()
    );
}

/// Prints `report` as a table and publishes it.
fn show(report: &StructuredReport) {
    println!("{}", sink::to_text(report));
    sink::publish(report);
}

/// Runs one figure on `lab`, prints its table and publishes its report.
fn figure<T>(
    lab: &Lab,
    run_on: fn(&Lab) -> Vec<T>,
    structured: fn(&[T]) -> StructuredReport,
) -> ExitCode {
    show(&structured(&run_on(lab)));
    ExitCode::SUCCESS
}

fn budget_line(cfg: &ExpConfig) {
    println!(
        "instructions/core: {} (+{} warmup), seed {}\n",
        cfg.instructions, cfg.warmup, cfg.seed
    );
}

/// A post-paper study: a title and the budget, the study, its time.
fn study(lab: &Lab, name: &str, run: fn(&Lab) -> ExitCode) -> ExitCode {
    println!("TIFS {name} study");
    budget_line(lab.exp());
    let t = Instant::now();
    let code = run(lab);
    eprintln!("[{name} study done in {:.0}s]", t.elapsed().as_secs_f64());
    code
}

fn table1(lab: &Lab) -> ExitCode {
    show(&tables::structured_table1(lab));
    ExitCode::SUCCESS
}

fn table2(_: &Lab) -> ExitCode {
    show(&tables::structured_table2());
    ExitCode::SUCCESS
}

/// Every table and figure in sequence: the trace analyses reuse the
/// lab's cached miss traces, and the timing figures share its workloads.
fn all(lab: &Lab) -> ExitCode {
    println!("TIFS reproduction — full evaluation");
    budget_line(lab.exp());
    table1(lab);
    table2(lab);
    let t = Instant::now();
    figure(lab, fig03::run_on, fig03::structured);
    figure(lab, fig05::run_on, fig05::structured);
    figure(lab, fig06::run_on, fig06::structured);
    figure(lab, fig10::run_on, fig10::structured);
    figure(lab, fig11::run_on, fig11::structured);
    eprintln!("[trace analyses done in {:.0}s]", t.elapsed().as_secs_f64());
    let t = Instant::now();
    figure(lab, fig01::run_on, fig01::structured);
    figure(lab, fig12::run_on, fig12::structured);
    figure(lab, fig13::run_on, fig13::structured);
    eprintln!("[timing studies done in {:.0}s]", t.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

/// Ablation study of TIFS design choices, every configuration one
/// [`SystemSpec::tifs`] cell of a single grid:
///
/// * end-of-stream detection on/off (paper Section 5.1.3 argues stopping
///   too late wastes bandwidth, too early loses coverage);
/// * SVB rate-matching depth;
/// * number of concurrent stream contexts (traps/context switches create
///   multiple in-flight streams, paper Section 5.2);
/// * SVB and IML capacity.
fn ablations(lab: &Lab) -> ExitCode {
    budget_line(lab.exp());
    let dflt = TifsConfig::virtualized();
    let mut systems: Vec<SystemSpec> = vec![
        SystemKind::NextLine.into(),
        SystemSpec::tifs("default (EOS on, rate 8, 4 ctx)", dflt),
        SystemSpec::tifs(
            "no end-of-stream detection",
            TifsConfig {
                end_of_stream: false,
                ..dflt
            },
        ),
    ];
    for rate in [2usize, 4, 16] {
        systems.push(SystemSpec::tifs(
            format!("rate target {rate}"),
            TifsConfig {
                rate_target: rate,
                ..dflt
            },
        ));
    }
    for ctx in [1usize, 2, 8] {
        systems.push(SystemSpec::tifs(
            format!("{ctx} stream context(s)"),
            TifsConfig {
                stream_contexts: ctx,
                ..dflt
            },
        ));
    }
    systems.push(SystemSpec::tifs(
        "small SVB (1 KB / 16 blocks)",
        TifsConfig {
            svb_blocks: 16,
            ..dflt
        },
    ));
    systems.push(SystemSpec::tifs(
        "tiny IML (1K entries/core)",
        TifsConfig {
            storage: ImlStorage::Virtualized {
                entries_per_core: 1024,
            },
            ..dflt
        },
    ));
    let results = ExperimentGrid::new(*lab.exp()).systems(systems).run_on(lab);
    let row = results.row(0);
    let base_ipc = row.ipc(SystemKind::NextLine);

    let mut report = StructuredReport::new(
        "ablations",
        "TIFS design-space ablations on OLTP DB2",
        [
            "configuration",
            "speedup",
            "coverage",
            "discards",
            "streams",
            "iml_traffic",
        ],
    );
    for (spec, r) in row
        .iter()
        .filter(|(spec, _)| **spec != SystemSpec::Kind(SystemKind::NextLine))
    {
        report.push_row(vec![
            Cell::Text(spec.name()),
            Cell::Num(r.aggregate_ipc() / base_ipc),
            Cell::Num(r.coverage()),
            Cell::from(r.prefetcher_counter("discards").unwrap_or(0.0) as u64),
            Cell::from(r.prefetcher_counter("streams").unwrap_or(0.0) as u64),
            Cell::from(r.l2.iml_traffic()),
        ]);
    }
    report.push_note(format!("baseline (next-line only) IPC: {base_ipc:.3}"));
    show(&report);
    ExitCode::SUCCESS
}

/// One line per workload against the paper's Table I targets, used when
/// retuning the synthetic workloads. At the default budget the
/// measurements are also checked against the Table I bands, and any
/// drift exits 1; a non-default budget skips the check (the bands are
/// scale-dependent) and says so.
fn calibrate(lab: &Lab) -> ExitCode {
    let n = lab.exp().instructions;
    let rows = lab.analyze(|ctx| {
        let t = Instant::now();
        let measured = calibration::measure(ctx.workload(), n);
        (measured, t.elapsed().as_secs_f64())
    });
    let mut report = StructuredReport::new(
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
    for (m, secs) in &rows {
        eprintln!("[{} calibrated in {secs:.1}s]", m.name);
        report.push_row(vec![
            Cell::from(m.name.as_str()),
            Cell::from(m.text_kb),
            Cell::Num(m.miss_per_1k),
            Cell::Num(m.miss_rate),
            Cell::from(m.misses),
            Cell::Num(m.repetitive),
            Cell::Num(m.opportunity),
            Cell::from(m.median_len),
            Cell::Num(m.recent_cov),
            Cell::Num(m.opportunity_cov),
        ]);
    }
    show(&report);
    if n != CALIBRATION_INSTRUCTIONS {
        println!(
            "calibration: band check skipped (bands are pinned at {CALIBRATION_INSTRUCTIONS} \
             instructions, this run used {n})"
        );
        return ExitCode::SUCCESS;
    }
    let measured: Vec<_> = rows.into_iter().map(|(m, _)| m).collect();
    let failures = calibration::check_bands(&measured);
    if failures.is_empty() {
        println!(
            "calibration: all {} workloads within their Table I bands",
            measured.len()
        );
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("calibration drift: {f}");
    }
    println!(
        "calibration: DRIFTED — {} statistic(s) outside the Table I bands \
         (retune deliberately; the bands live in tifs_experiments::calibration)",
        failures.len()
    );
    ExitCode::FAILURE
}
