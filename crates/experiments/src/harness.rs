//! Experiment parameters, the system taxonomy, and the trace analyses'
//! functional walk ([`walk_core`]). The [`engine`](crate::engine) owns
//! system construction, stream building, and parallel execution.

use tifs_sim::config::SystemConfig;
use tifs_sim::miss_trace::FunctionalFetchModel;
use tifs_trace::workload::Workload;
use tifs_trace::{BlockAddr, BranchKind};

/// Common experiment parameters (overridable from the command line).
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Measured instructions per core.
    pub instructions: u64,
    /// Warmup instructions per core (caches, predictors, IMLs).
    pub warmup: u64,
    /// Workload generation seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    /// Default budgets follow the `TIFS_SCALE` profile knob:
    ///
    /// * `step` (or unset) — 2M measured + 2M warmup instructions per
    ///   core, one notch toward the paper's full-scale methodology.
    ///   The measured budget deliberately equals
    ///   [`CALIBRATION_INSTRUCTIONS`](crate::calibration::CALIBRATION_INSTRUCTIONS),
    ///   so a default `calibrate` run checks the Table I bands at
    ///   exactly the scale default experiments run at.
    /// * `base` — the historical 1M/1M budgets.
    ///
    /// Anything that must stay pinned across profiles (goldens, CI
    /// evaluation runs, benches) passes explicit budgets and never sees
    /// this knob.
    fn default() -> Self {
        let (instructions, warmup) = match std::env::var("TIFS_SCALE").as_deref() {
            Ok("base") => (1_000_000, 1_000_000),
            _ => (2_000_000, 2_000_000),
        };
        ExpConfig {
            instructions,
            warmup,
            seed: 42,
        }
    }
}

impl ExpConfig {
    /// Parses `--instructions N`, `--warmup N`, `--seed N` from argv;
    /// unknown arguments are ignored so binaries can add their own.
    pub fn from_args() -> ExpConfig {
        let mut cfg = ExpConfig::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i + 1 < args.len() {
            let value = || args[i + 1].replace('_', "").parse::<u64>();
            match args[i].as_str() {
                "--instructions" | "-n" => {
                    if let Ok(v) = value() {
                        cfg.instructions = v;
                    }
                }
                "--warmup" | "-w" => {
                    if let Ok(v) = value() {
                        cfg.warmup = v;
                    }
                }
                "--seed" | "-s" => {
                    if let Ok(v) = value() {
                        cfg.seed = v;
                    }
                }
                _ => {
                    i += 1;
                    continue;
                }
            }
            i += 2;
        }
        cfg
    }
}

/// The systems compared across the paper's evaluation (Figure 13 bars).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SystemKind {
    /// Base system: next-line instruction prefetcher only.
    NextLine,
    /// Fetch-directed instruction prefetching \[24\].
    Fdip,
    /// Discontinuity prefetcher \[31\] (extension baseline).
    Discontinuity,
    /// TIFS with unbounded IMLs and dedicated index.
    TifsUnbounded,
    /// TIFS with 156 KB dedicated IML SRAM.
    TifsDedicated,
    /// TIFS with 156 KB virtualized IML storage (the proposed design).
    TifsVirtualized,
    /// Probabilistic prefetcher with the given coverage (Figure 1).
    Probabilistic(f64),
    /// Perfect, timely instruction prefetcher (upper bound).
    Perfect,
}

impl SystemKind {
    /// Display name matching the paper's legends.
    pub fn name(self) -> String {
        match self {
            SystemKind::NextLine => "Next-line".into(),
            SystemKind::Fdip => "FDIP".into(),
            SystemKind::Discontinuity => "Discontinuity".into(),
            SystemKind::TifsUnbounded => "TIFS-unbounded".into(),
            SystemKind::TifsDedicated => "TIFS-dedicated".into(),
            SystemKind::TifsVirtualized => "TIFS-virtualized".into(),
            SystemKind::Probabilistic(p) => format!("Prob({:.0}%)", p * 100.0),
            SystemKind::Perfect => "Perfect".into(),
        }
    }

    /// The Figure 13 bar set.
    pub fn figure13() -> Vec<SystemKind> {
        vec![
            SystemKind::Fdip,
            SystemKind::Discontinuity,
            SystemKind::TifsUnbounded,
            SystemKind::TifsDedicated,
            SystemKind::TifsVirtualized,
            SystemKind::Perfect,
        ]
    }
}

/// One core's functional-model pass for the trace analyses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreWalk {
    /// The L1-I miss trace (paper Section 4.1 miss definition).
    pub misses: Vec<BlockAddr>,
    /// Figure 10's lookahead marks, one per miss: the number of
    /// conditional branches outside innermost loops executed before it.
    pub marks: Vec<u64>,
}

/// Walks the first `instructions` of core `core` through the Table II
/// functional fetch model, recording its misses and their lookahead
/// marks in one pass. [`Lab::miss_traces`](crate::engine::Lab::miss_traces)
/// walks every analysis core with it, and Figure 10 reuses core 0's
/// marks from that pass.
pub fn walk_core(workload: &Workload, core: usize, instructions: u64) -> CoreWalk {
    let mut model = FunctionalFetchModel::new(&SystemConfig::table2());
    let mut walk = CoreWalk::default();
    let mut branches: u64 = 0;
    for rec in workload.walker(core).take(instructions as usize) {
        if let Some(block) = model.access_pc(rec.pc) {
            walk.misses.push(block);
            walk.marks.push(branches);
        }
        if let Some(b) = rec.branch {
            if b.kind == BranchKind::Conditional && !b.inner_loop {
                branches += 1;
            }
        }
    }
    walk
}

/// Converts per-core miss traces to `u64` symbol vectors for the
/// SEQUITUR analyses.
pub fn to_symbol_traces(traces: &[Vec<BlockAddr>]) -> Vec<Vec<u64>> {
    traces
        .iter()
        .map(|t| t.iter().map(|b| b.0).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{build_prefetcher, SystemSpec};
    use tifs_trace::workload::WorkloadSpec;

    #[test]
    fn all_system_kinds_build() {
        let w = Workload::build(&WorkloadSpec::tiny_test(), 3);
        let sys = SystemConfig::single_core();
        for kind in [
            SystemKind::NextLine,
            SystemKind::Fdip,
            SystemKind::Discontinuity,
            SystemKind::TifsUnbounded,
            SystemKind::TifsDedicated,
            SystemKind::TifsVirtualized,
            SystemKind::Probabilistic(0.5),
            SystemKind::Perfect,
        ] {
            let pf = build_prefetcher(&SystemSpec::Kind(kind), &w, &sys, 1);
            assert!(!pf.name().is_empty());
        }
    }

    #[test]
    fn miss_traces_per_core() {
        let w = Workload::build(&WorkloadSpec::tiny_test(), 3);
        let walks: Vec<CoreWalk> = (0..2).map(|c| walk_core(&w, c, 30_000)).collect();
        let sys = SystemConfig::table2();
        for (c, walk) in walks.iter().enumerate() {
            assert!(!walk.misses.is_empty());
            let records = w.walker(c).take(30_000);
            assert_eq!(walk.misses, tifs_sim::miss_trace(records, &sys));
            assert_eq!(walk.marks.len(), walk.misses.len());
            assert!(walk.marks.windows(2).all(|m| m[0] <= m[1]));
        }
        let traces: Vec<Vec<BlockAddr>> = walks.into_iter().map(|w| w.misses).collect();
        let syms = to_symbol_traces(&traces);
        assert_eq!(syms[0].len(), traces[0].len());
    }
}
