//! Command-line settings of the benchmark binaries and the environment
//! they insist on.

use std::path::PathBuf;

use tifs_experiments::engine::par;
use tifs_experiments::harness::ExpConfig;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 13's grid: 42 timing cells.
    Fig13,
    /// The workload-mix study's default grid: 48 timing cells.
    FleetMix,
    /// Table I and Figures 3, 5, 6, 10 and 11: no timing simulator.
    TraceAnalyses,
}

impl Workload {
    /// Every workload, in the order `run.py --workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Fig13, Workload::FleetMix, Workload::TraceAnalyses];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig13 => "fig13",
            Workload::FleetMix => "fleet_mix",
            Workload::TraceAnalyses => "trace_analyses",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Where each pass's stores live, relative to the repository
/// root the benchmark runs from.
pub const WORK_DIR: &str = ".perfbench/tmp";

/// The workload seed of every golden and calibration band.
pub const DEFAULT_SEED: u64 = 42;

/// Settings of one benchmark process.
#[derive(Clone, Debug)]
pub struct Settings {
    /// The workload to run.
    pub workload: Workload,
    /// Workload-generation seed.
    pub seed: u64,
    /// Measuring time: after the first pass, passes start while the next
    /// one is expected to end within this many seconds.
    pub seconds: f64,
    /// Measured instructions per core of a timing cell.
    pub instructions: u64,
    /// Warmup instructions per core of a timing cell.
    pub warmup: u64,
    /// Instructions per core of the functional miss-trace pass.
    pub analysis_instructions: u64,
    /// Worker threads: `TIFS_THREADS`, which the launcher pins.
    pub workers: usize,
    /// Wall-clock time (ns since the Unix epoch) at which the launcher
    /// started this process; set-up time is measured from it.
    pub launch_ns: Option<u128>,
    /// Only set up, report the set-up time and exit.
    pub setup_only: bool,
    /// Where the traced run writes its spans.
    pub spans_out: Option<PathBuf>,
}

/// Usage text of both binaries.
pub const USAGE: &str = "usage: perfbench[-trace] --workload <fig13|fleet_mix|trace_analyses> \
[--seed N] [--seconds S] [--instructions N] [--warmup N] \
[--analysis-instructions N] [--launch-ns NS] [--setup-only] [--spans-out FILE]\n\
Run it through perfbench/run.py, which builds it and pins the environment.";

impl Settings {
    /// Parses the arguments after the program name.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Settings, String> {
        let mut s = Settings {
            workload: Workload::Fig13,
            seed: DEFAULT_SEED,
            seconds: 12.0,
            instructions: 400_000,
            warmup: 400_000,
            analysis_instructions: 2_000_000,
            workers: par::parallelism(),
            launch_ns: None,
            setup_only: false,
            spans_out: None,
        };
        let mut workload = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--setup-only" {
                s.setup_only = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?);
                }
                "--seed" => s.seed = value.parse().map_err(|_| bad("a seed"))?,
                "--seconds" => s.seconds = value.parse().map_err(|_| bad("a number"))?,
                "--instructions" => s.instructions = value.parse().map_err(|_| bad("a count"))?,
                "--warmup" => s.warmup = value.parse().map_err(|_| bad("a count"))?,
                "--analysis-instructions" => {
                    s.analysis_instructions = value.parse().map_err(|_| bad("a count"))?;
                }
                "--spans-out" => s.spans_out = Some(PathBuf::from(value)),
                "--launch-ns" => s.launch_ns = Some(value.parse().map_err(|_| bad("a time"))?),
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        s.workload = workload.ok_or("--workload is required")?;
        Ok(s)
    }

    /// The experiment parameters of this workload: the timing budget for
    /// the grids, the functional-pass budget for the analyses.
    pub fn exp(&self) -> ExpConfig {
        match self.workload {
            Workload::Fig13 | Workload::FleetMix => ExpConfig {
                instructions: self.instructions,
                warmup: self.warmup,
                seed: self.seed,
            },
            Workload::TraceAnalyses => ExpConfig {
                instructions: self.analysis_instructions,
                warmup: 0,
                seed: self.seed,
            },
        }
    }
}

/// The env-selected stores and results sink, which must be `off`: every
/// pass attaches fresh stores explicitly, and nothing is written to
/// `.tifs-cache/` or `results/`.
const OFF_KNOBS: [&str; 3] = ["TIFS_TRACE_STORE", "TIFS_REPORT_STORE", "TIFS_RESULTS"];

/// Checks that the environment pins every `TIFS_*` variable a benchmark
/// process reads: `TIFS_THREADS` set to a worker count and [`OFF_KNOBS`]
/// set to `off`. Any other `TIFS_*` variable, such as
/// `TIFS_SHARD_CONTENTION`, which silently switches `fig13` to another
/// execution mode, is refused.
pub fn check_pinned_env() -> Result<(), String> {
    for (key, value) in std::env::vars() {
        if key == "TIFS_THREADS" {
            if !value.parse::<usize>().is_ok_and(|n| n > 0) {
                return Err(format!("TIFS_THREADS={value}, expected a worker count"));
            }
        } else if OFF_KNOBS.contains(&key.as_str()) {
            if value != "off" {
                return Err(format!("{key}={value}, expected off"));
            }
        } else if key.starts_with("TIFS_") {
            return Err(format!(
                "{key} is set; the benchmark pins every TIFS_* knob"
            ));
        }
    }
    for key in std::iter::once("TIFS_THREADS").chain(OFF_KNOBS) {
        if std::env::var_os(key).is_none() {
            return Err(format!("{key} must be set"));
        }
    }
    Ok(())
}
