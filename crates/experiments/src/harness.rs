//! Experiment parameters, the system taxonomy, and the trace analyses'
//! functional walk ([`walk_core`]). The [`engine`](crate::engine) owns
//! system construction, stream building, and parallel execution.

use tifs_sim::config::SystemConfig;
use tifs_sim::miss_trace::FunctionalFetchModel;
use tifs_trace::exec::Step;
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
    /// 2M measured + 2M warmup instructions per core at seed 42. The
    /// measured budget equals
    /// [`CALIBRATION_INSTRUCTIONS`](crate::calibration::CALIBRATION_INSTRUCTIONS),
    /// so a default `calibrate` run checks the Table I bands at exactly
    /// the scale default experiments run at. Goldens, CI evaluation runs
    /// and benches pass explicit budgets.
    fn default() -> Self {
        ExpConfig {
            instructions: 2_000_000,
            warmup: 2_000_000,
            seed: 42,
        }
    }
}

impl ExpConfig {
    /// Parses `--instructions N`, `--warmup N` and `--seed N` (or `-n`,
    /// `-w`, `-s`) over the defaults; `_` may separate digits. An unknown
    /// flag, a flag without a value and an unparsable number are errors.
    pub fn parse(args: &[String]) -> Result<ExpConfig, String> {
        let mut cfg = ExpConfig::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let field = match flag.as_str() {
                "--instructions" | "-n" => &mut cfg.instructions,
                "--warmup" | "-w" => &mut cfg.warmup,
                "--seed" | "-s" => &mut cfg.seed,
                _ => return Err(format!("unknown argument `{flag}`")),
            };
            let value = args.next().ok_or(format!("`{flag}` needs a value"))?;
            *field = value
                .replace('_', "")
                .parse()
                .map_err(|_| format!("`{flag}` takes a whole number, not `{value}`"))?;
        }
        Ok(cfg)
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
/// marks from that pass. The walk takes runs of plain ops whole
/// ([`Walker::step`](tifs_trace::exec::Walker::step)); its misses and
/// marks are those of the same walk one record at a time.
pub fn walk_core(workload: &Workload, core: usize, instructions: u64) -> CoreWalk {
    let mut model = FunctionalFetchModel::new(&SystemConfig::table2());
    let mut walk = CoreWalk::default();
    let mut branches: u64 = 0;
    let mut walker = workload.walker(core);
    while walker.instructions() < instructions {
        let (pc, len, branch) = match walker.step(instructions - walker.instructions()) {
            Step::Run { pc, len } => (pc, len, None),
            Step::Instr(rec) => (rec.pc, 1, rec.branch),
        };
        model.access_run(pc, len, |block| {
            walk.misses.push(block);
            walk.marks.push(branches);
        });
        if matches!(branch, Some(b) if b.kind == BranchKind::Conditional && !b.inner_loop) {
            branches += 1;
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

    fn parse(args: &[&str]) -> Result<ExpConfig, String> {
        ExpConfig::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_accepts_every_flag_form() {
        let cfg = parse(&[]).unwrap();
        assert_eq!(
            (cfg.instructions, cfg.warmup, cfg.seed),
            (2_000_000, 2_000_000, 42)
        );
        let cfg = parse(&[
            "--instructions",
            "60_000",
            "--warmup",
            "7",
            "--seed",
            "1729",
        ])
        .unwrap();
        assert_eq!((cfg.instructions, cfg.warmup, cfg.seed), (60_000, 7, 1729));
        let cfg = parse(&["-s", "3", "-n", "1_000_000", "-w", "0"]).unwrap();
        assert_eq!((cfg.instructions, cfg.warmup, cfg.seed), (1_000_000, 0, 3));
    }

    #[test]
    fn parse_rejects_bad_flags_instead_of_keeping_the_default() {
        for (args, error) in [
            (
                &["--instrutions", "60000"][..],
                "unknown argument `--instrutions`",
            ),
            (&["60000"][..], "unknown argument `60000`"),
            (&["--warmup"][..], "`--warmup` needs a value"),
            (&["-n", "60k"][..], "`-n` takes a whole number, not `60k`"),
            (
                &["--seed", "-1"][..],
                "`--seed` takes a whole number, not `-1`",
            ),
        ] {
            assert_eq!(parse(args).unwrap_err(), error, "{args:?}");
        }
    }

    #[test]
    fn default_budget_is_the_calibration_budget() {
        assert_eq!(
            ExpConfig::default().instructions,
            crate::calibration::CALIBRATION_INSTRUCTIONS
        );
    }

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

    /// Figure 10's marks recounted one record at a time.
    fn marks_per_record(workload: &Workload, core: usize, instructions: usize) -> Vec<u64> {
        let mut model = FunctionalFetchModel::new(&SystemConfig::table2());
        let (mut marks, mut branches) = (Vec::new(), 0);
        for rec in workload.walker(core).take(instructions) {
            if model.access_pc(rec.pc).is_some() {
                marks.push(branches);
            }
            if matches!(rec.branch, Some(b) if b.kind == BranchKind::Conditional && !b.inner_loop) {
                branches += 1;
            }
        }
        marks
    }

    #[test]
    fn miss_traces_per_core() {
        const INSTRUCTIONS: u64 = 100_000;
        let n = INSTRUCTIONS as usize;
        let sys = SystemConfig::table2();
        let mut workloads: Vec<Workload> = WorkloadSpec::all_six()
            .iter()
            .map(|spec| Workload::build(spec, 3))
            .collect();
        // A duty-cycled tenant in a shifted mix slot whose context
        // switches flush: idle quanta and switch countdowns cut its runs.
        let flushing = WorkloadSpec::tiny_server()
            .with_duty_cycle(0.5)
            .with_ctx_switch_period(700);
        workloads.push(Workload::build_at(&flushing, 3, 2));
        for w in &workloads {
            let walks: Vec<CoreWalk> = (0..2).map(|c| walk_core(w, c, INSTRUCTIONS)).collect();
            for (c, walk) in walks.iter().enumerate() {
                let name = &w.spec.name;
                assert!(!walk.misses.is_empty(), "{name} core {c}");
                let records = w.walker(c).take(n);
                assert_eq!(
                    walk.misses,
                    tifs_sim::miss_trace(records, &sys),
                    "{name} core {c}"
                );
                assert_eq!(walk.marks, marks_per_record(w, c, n), "{name} core {c}");
            }
            let traces: Vec<Vec<BlockAddr>> = walks.into_iter().map(|w| w.misses).collect();
            let syms = to_symbol_traces(&traces);
            assert_eq!(syms[0].len(), traces[0].len());
        }
    }
}
