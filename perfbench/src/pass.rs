//! One benchmark pass: fresh stores, a fresh `Lab`, the
//! workload's figure-level entry points timed, then every output checked
//! and digested.

use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use tifs_experiments::engine::Lab;
use tifs_experiments::figures::fig13::SpeedupRow;
use tifs_experiments::figures::fig_mix::MixCell;
use tifs_experiments::figures::{fig03, fig05, fig06, fig10, fig11, fig13, fig_mix, tables};
use tifs_experiments::harness::SystemKind;
use tifs_experiments::sink::{self, Cell, StructuredReport};
use tifs_trace::{Fingerprint, ReportStore, TraceStore};

use crate::checks::{read_report_store, read_trace_store, ReportEntry, Tally};
use crate::cli::{Settings, Workload, WORK_DIR};

/// The paper's Figure 13 headline, compared at benchmark scale (the
/// reproduction's own numbers depend on the instruction budget).
pub const PAPER_TIFS_MEAN_SPEEDUP: f64 = 1.11;
/// The paper's best TIFS speedup over next-line.
pub const PAPER_TIFS_BEST_SPEEDUP: f64 = 1.24;
/// The paper's mean TIFS gain over FDIP, in percent.
pub const PAPER_GAIN_OVER_FDIP_PCT: f64 = 5.0;

/// The directory of one pass's stores, removed on drop.
#[derive(Debug)]
pub struct StoreDir {
    root: PathBuf,
}

impl StoreDir {
    /// Creates an empty directory under `work_dir`, unique in this
    /// process.
    pub fn create(work_dir: &Path, tag: &str) -> io::Result<StoreDir> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let root = work_dir.join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root)?;
        Ok(StoreDir { root })
    }

    /// The trace store directory.
    pub fn traces(&self) -> PathBuf {
        self.root.join("traces")
    }

    /// The report store directory.
    pub fn reports(&self) -> PathBuf {
        self.root.join("reports")
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// A pass's set-up state: the lab and the empty stores it writes through.
pub struct Setup {
    /// Where the stores live.
    pub dirs: StoreDir,
    /// The workloads and stores the figure entry points run on.
    pub lab: Lab,
}

/// Sets up one pass: fresh stores, and the workloads built by `Lab`.
/// `fleet_mix` builds its programs per cell inside `fig_mix::run_on`, so
/// its lab is empty and only carries the parameters and the store.
pub fn setup(s: &Settings) -> io::Result<Setup> {
    let dirs = StoreDir::create(Path::new(WORK_DIR), s.workload.name())?;
    let exp = s.exp();
    let lab = match s.workload {
        Workload::Fig13 => Lab::all_six(exp).with_report_store(ReportStore::new(dirs.reports())?),
        Workload::FleetMix => {
            Lab::build(Vec::new(), exp).with_report_store(ReportStore::new(dirs.reports())?)
        }
        Workload::TraceAnalyses => Lab::all_six(exp).with_store(TraceStore::new(dirs.traces())?),
    };
    Ok(Setup { dirs, lab })
}

/// What a workload's figure-level entry points returned.
pub enum Outputs {
    /// `fig13::run_on`.
    Fig13(Vec<SpeedupRow>),
    /// `fig_mix::run_on`.
    FleetMix(Vec<MixCell>),
    /// Table I and Figures 3, 5, 6, 10, 11 in structured form.
    Analyses(Vec<StructuredReport>),
}

/// Runs the workload's timed phase on a set-up lab.
pub fn timed_phase(workload: Workload, lab: &Lab) -> Outputs {
    match workload {
        Workload::Fig13 => Outputs::Fig13(fig13::run_on(lab)),
        Workload::FleetMix => Outputs::FleetMix(fig_mix::run_on(lab)),
        Workload::TraceAnalyses => Outputs::Analyses(vec![
            tables::structured_table1(lab),
            fig03::structured(&fig03::run_on(lab)),
            fig05::structured(&fig05::run_on(lab)),
            fig06::structured(&fig06::run_on(lab)),
            fig10::structured(&fig10::run_on(lab)),
            fig11::structured(&fig11::run_on(lab)),
        ]),
    }
}

/// A figure-level value printed beside the metrics (not a host metric).
#[derive(Clone, Debug)]
pub struct Figure {
    /// Metric-style name.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Figure 13's headline and its distance from the paper's.
pub fn fig13_figures(rows: &[SpeedupRow]) -> Vec<Figure> {
    let of = |kind| rows.iter().filter_map(|r| r.of(kind)).collect::<Vec<f64>>();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let tifs = of(SystemKind::TifsVirtualized);
    let tifs_mean = mean(&tifs);
    let fdip_mean = mean(&of(SystemKind::Fdip));
    let gain_pct = (tifs_mean / fdip_mean - 1.0) * 100.0;
    vec![
        Figure {
            name: "tifs_virtualized_mean_speedup",
            value: tifs_mean,
            unit: "x",
        },
        Figure {
            name: "tifs_virtualized_best_speedup",
            value: tifs.iter().copied().fold(f64::MIN, f64::max),
            unit: "x",
        },
        Figure {
            name: "fdip_mean_speedup",
            value: fdip_mean,
            unit: "x",
        },
        Figure {
            name: "paper_err_speedup_pct",
            value: (tifs_mean - PAPER_TIFS_MEAN_SPEEDUP).abs() / PAPER_TIFS_MEAN_SPEEDUP * 100.0,
            unit: "%",
        },
        Figure {
            name: "paper_err_fdip_gap_pp",
            value: (gain_pct - PAPER_GAIN_OVER_FDIP_PCT).abs(),
            unit: "pp",
        },
    ]
}

/// Checks an analysis report: one row per workload, every number finite.
fn check_analysis(report: &StructuredReport, workloads: usize, tally: &mut Tally) {
    tally.check(report.rows.len() == workloads, || {
        format!(
            "{}: {} rows for {workloads} workloads",
            report.name,
            report.rows.len()
        )
    });
    for (i, row) in report.rows.iter().enumerate() {
        let finite = row
            .iter()
            .all(|c| !matches!(c, Cell::Num(v) if !v.is_finite()));
        tally.check(finite, || {
            format!("{} row {i}: non-finite value", report.name)
        });
    }
}

/// Everything a pass's outputs were checked and digested into.
pub struct Checked {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Simulated instructions over every computed cell (all cores, warmup
    /// plus measured); for the analyses, functional miss-trace
    /// instructions.
    pub sim_instructions: u64,
    /// Simulated cycles of the measured windows, over every computed cell.
    pub sim_cycles: u64,
    /// Structured JSON of every figure and table, by name.
    pub jsons: Vec<(String, String)>,
    /// Every report-store entry, sorted by key.
    pub reports: Vec<ReportEntry>,
    /// Every trace-store entry, sorted by key.
    pub traces: Vec<(u128, Vec<Vec<u64>>)>,
    /// Figure-level values.
    pub figures: Vec<Figure>,
}

impl Checked {
    /// One digest of every output byte: each figure's structured JSON,
    /// then every store entry (key and payload) in key order.
    pub fn digest(&self) -> u128 {
        let mut h = Fingerprint::new();
        for (name, json) in &self.jsons {
            h.str(name);
            h.str(json);
        }
        for e in &self.reports {
            h.bytes(&e.key.to_le_bytes());
            h.u64(e.payload.len() as u64);
            h.bytes(&e.payload);
        }
        for (key, sections) in &self.traces {
            h.bytes(&key.to_le_bytes());
            h.u64(sections.len() as u64);
            for section in sections {
                h.u64(section.len() as u64);
                for &symbol in section {
                    h.u64(symbol);
                }
            }
        }
        h.finish()
    }
}

/// Reads back a timing pass's report store (see [`read_report_store`]).
fn check_timing(
    s: &Settings,
    setup: &Setup,
    jsons: Vec<(String, String)>,
    expected_cells: usize,
    figures: Vec<Figure>,
) -> io::Result<Checked> {
    let exp = s.exp();
    let mut tally = Tally::default();
    let store = setup
        .lab
        .report_store()
        .expect("timing passes attach a report store");
    let reports = read_report_store(
        &setup.dirs.reports(),
        store.stats(),
        expected_cells,
        exp.instructions,
        &mut tally,
    )?;
    let sim_instructions = reports
        .iter()
        .map(|e| e.report.cores.len() as u64 * (exp.instructions + exp.warmup))
        .sum();
    let sim_cycles = reports.iter().map(|e| e.report.cycles).sum();
    Ok(Checked {
        tally,
        sim_instructions,
        sim_cycles,
        jsons,
        reports,
        traces: Vec::new(),
        figures,
    })
}

/// Checks the analyses' reports and reads back their trace store; every
/// workload's cached miss traces must equal a store entry.
fn check_analyses(
    s: &Settings,
    setup: &Setup,
    reports: &[StructuredReport],
) -> io::Result<Checked> {
    let lab = &setup.lab;
    let mut tally = Tally::default();
    for report in reports {
        check_analysis(report, lab.len(), &mut tally);
    }
    let store = lab.store().expect("the analyses attach a trace store");
    let traces = read_trace_store(&setup.dirs.traces(), store.stats(), &mut tally)?;
    let mut sim_instructions = 0;
    for i in 0..lab.len() {
        let cached: Vec<Vec<u64>> = lab
            .miss_traces(i)
            .iter()
            .map(|t| t.iter().map(|b| b.0).collect())
            .collect();
        sim_instructions += cached.len() as u64 * s.exp().instructions;
        tally.check(traces.iter().any(|(_, t)| *t == cached), || {
            format!(
                "{} miss traces differ from every store entry",
                lab.spec(i).name
            )
        });
    }
    Ok(Checked {
        tally,
        sim_instructions,
        sim_cycles: 0,
        jsons: reports
            .iter()
            .map(|r| (r.name.clone(), sink::to_json(r)))
            .collect(),
        reports: Vec::new(),
        traces,
        figures: Vec::new(),
    })
}

/// Checks and digests a pass's outputs after its timed phase.
pub fn check_outputs(s: &Settings, setup: &Setup, outputs: Outputs) -> io::Result<Checked> {
    match outputs {
        Outputs::Fig13(rows) => {
            let cells = rows.len() * (1 + SystemKind::figure13().len());
            let json = sink::to_json(&fig13::structured(&rows));
            check_timing(
                s,
                setup,
                vec![("fig13".into(), json)],
                cells,
                fig13_figures(&rows),
            )
        }
        Outputs::FleetMix(cells) => {
            let json = sink::to_json(&fig_mix::structured(&cells));
            check_timing(
                s,
                setup,
                vec![("fig_mix".into(), json)],
                cells.len(),
                Vec::new(),
            )
        }
        Outputs::Analyses(reports) => check_analyses(s, setup, &reports),
    }
}

/// One completed pass.
pub struct Pass {
    /// Fresh stores plus the lab build.
    pub setup: Duration,
    /// When the timed phase started.
    pub timed_start: SystemTime,
    /// The timed phase: the figure-level entry points.
    pub wall: Duration,
    /// The checked outputs.
    pub checked: Checked,
    /// The pass's lab and stores, kept until the pass is dropped.
    pub state: Setup,
}

/// Runs one pass: set-up, timed phase, checks.
pub fn run_pass(s: &Settings) -> io::Result<Pass> {
    let t = Instant::now();
    let state = setup(s)?;
    let setup = t.elapsed();
    let timed_start = SystemTime::now();
    let t = Instant::now();
    let outputs = timed_phase(s.workload, &state.lab);
    let wall = t.elapsed();
    let checked = check_outputs(s, &state, outputs)?;
    Ok(Pass {
        setup,
        timed_start,
        wall,
        checked,
        state,
    })
}

/// Seconds from the launcher's start of this process to `at`.
pub fn since_launch(launch_ns: u128, at: SystemTime) -> f64 {
    let at_ns = at.duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
    at_ns.saturating_sub(launch_ns) as f64 / 1e9
}

/// The timings and outcome of one pass, kept after its state is dropped.
#[derive(Clone, Debug)]
pub struct PassSummary {
    /// Set-up seconds (fresh stores plus lab build).
    pub setup_s: f64,
    /// Timed-phase seconds.
    pub wall_s: f64,
    /// Simulated instructions of the pass.
    pub sim_instructions: u64,
    /// Simulated cycles of the pass's measured windows.
    pub sim_cycles: u64,
    /// Output digest.
    pub digest: u128,
}

/// The passes of one measuring process.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Completed passes, in order.
    pub passes: Vec<PassSummary>,
    /// Launch of the process to the first timed phase, when the launcher
    /// passed its start time.
    pub setup_from_launch_s: Option<f64>,
    /// Checks over every pass, including that all passes produced the
    /// same digest.
    pub tally: Tally,
    /// Figure-level values of the first pass.
    pub figures: Vec<Figure>,
    /// Peak resident set after the first pass, in MB: what one cold run
    /// of the workload needs. Later passes in the same process only add
    /// allocator retention.
    pub peak_rss_mb: Option<f64>,
    /// Why measuring stopped early, if it did.
    pub error: Option<String>,
}

/// Runs passes until the next one is expected to end after `s.seconds`
/// (at least one).
pub fn measure(s: &Settings) -> Measurement {
    let start = Instant::now();
    let mut m = Measurement::default();
    loop {
        let pass = match catch_unwind(AssertUnwindSafe(|| run_pass(s))) {
            Ok(Ok(pass)) => pass,
            Ok(Err(e)) => {
                m.error = Some(format!("pass {}: {e}", m.passes.len() + 1));
                break;
            }
            Err(panic) => {
                let what = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                m.tally.check(false, || {
                    format!("pass {} panicked: {what}", m.passes.len() + 1)
                });
                m.error = Some("a pass panicked".into());
                break;
            }
        };
        let digest = pass.checked.digest();
        if let Some(first) = m.passes.first() {
            m.tally.check(first.digest == digest, || {
                format!("pass {} digest differs from pass 1", m.passes.len() + 1)
            });
        } else {
            m.setup_from_launch_s = s.launch_ns.map(|ns| since_launch(ns, pass.timed_start));
            m.figures = pass.checked.figures.clone();
            m.peak_rss_mb = peak_rss_mb();
        }
        let summary = PassSummary {
            setup_s: pass.setup.as_secs_f64(),
            wall_s: pass.wall.as_secs_f64(),
            sim_instructions: pass.checked.sim_instructions,
            sim_cycles: pass.checked.sim_cycles,
            digest,
        };
        m.tally.merge(pass.checked.tally);
        m.passes.push(summary);
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / m.passes.len() as f64;
        if elapsed + per_pass > s.seconds {
            break;
        }
    }
    m
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
