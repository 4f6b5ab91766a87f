//! Mix-axis equivalence and flush-recovery properties:
//!
//! * **degenerate mixes are the homogeneous engine** — a `Mix` whose
//!   positions are all one spec must produce *byte-identical* reports
//!   to a CMP whose every core walks one built [`Workload`], across
//!   seeds, core counts, copy counts, and systems (the mix axis must
//!   cost nothing when it measures nothing);
//! * **flush-off cells bill nothing** — without context switches the
//!   flush/refill counters stay exactly zero;
//! * **refill windows open and close** — under context switching, a
//!   TIFS core's flush count and refill charges move, and the windows
//!   *converge*: windowed coverage returns to its pre-flush running
//!   mean well inside the inter-flush gap, so refill cycles stay a
//!   bounded fraction of the run instead of absorbing it.

use proptest::prelude::*;
use tifs_experiments::engine::{build_prefetcher, run_cell, SystemSpec};
use tifs_experiments::harness::{ExpConfig, SystemKind};
use tifs_sim::cmp::Cmp;
use tifs_sim::config::SystemConfig;
use tifs_sim::stats::SimReport;
use tifs_trace::workload::{CellPrograms, CellWorkload, Workload, WorkloadSpec};
use tifs_trace::FetchRecord;

fn cmp_sys(cores: usize) -> SystemConfig {
    SystemConfig {
        num_cores: cores,
        ..SystemConfig::table2()
    }
}

/// The homogeneous reference, independent of [`run_cell`]: every core
/// walks one built workload.
fn homogeneous(
    spec: &WorkloadSpec,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
) -> SimReport {
    let workload = Workload::build(spec, exp.seed);
    let streams = (0..sys.num_cores)
        .map(|c| Box::new(workload.walker(c)) as Box<dyn Iterator<Item = FetchRecord>>)
        .collect();
    let pf = build_prefetcher(system, &workload, sys, exp.seed);
    let mut cmp = Cmp::new(sys.clone(), streams, pf);
    cmp.run_with_warmup(exp.warmup, exp.instructions)
}

proptest! {
    #[test]
    fn degenerate_mix_is_byte_identical_to_homogeneous(
        seed in 0u64..10_000,
        cores in 1usize..=3,
        copies in 1usize..=3,
        instructions in 1_000u64..3_000,
        warmup in 0u64..1_000,
        tifs in any::<bool>(),
    ) {
        let spec = WorkloadSpec::tiny_test();
        let exp = ExpConfig { instructions, warmup, seed };
        let sys = cmp_sys(cores);
        let system = SystemSpec::Kind(if tifs {
            SystemKind::TifsVirtualized
        } else {
            SystemKind::NextLine
        });
        let cell = CellWorkload::Mix(vec![spec.clone(); copies]);
        let programs = CellPrograms::build(&cell, seed);
        let mix = run_cell(&programs, &system, &exp, &sys);
        let legacy = homogeneous(&spec, &system, &exp, &sys);
        prop_assert!(
            mix.to_canonical_bytes() == legacy.to_canonical_bytes(),
            "a {}-copy degenerate mix diverged from the homogeneous cell \
             at {} cores (seed {})", copies, cores, seed
        );
    }

    #[test]
    fn flush_off_cells_bill_no_refill(
        seed in 0u64..10_000,
        instructions in 1_000u64..3_000,
    ) {
        let exp = ExpConfig { instructions, warmup: 500, seed };
        let sys = cmp_sys(1);
        let report = run_cell(
            &CellPrograms::build(&WorkloadSpec::tiny_test().into(), seed),
            &SystemSpec::Kind(SystemKind::TifsVirtualized),
            &exp,
            &sys,
        );
        for core in &report.cores {
            prop_assert_eq!(core.flushes, 0);
            prop_assert_eq!(core.refill_cycles, 0);
            prop_assert_eq!(core.refill_misses, 0);
        }
    }

    #[test]
    fn refill_windows_open_and_converge(
        seed in 0u64..10_000,
        period in 2_000u64..5_000,
    ) {
        // A context-switching tenant under TIFS: every switch flushes
        // the prefetcher metadata and opens a refill window that closes
        // when windowed coverage recovers its pre-flush mean. The
        // tenant must actually miss for recovery to be measurable
        // (tiny_server's hot text overflows the L1-I; L1-resident
        // tiny_test would bill nothing by design), and TIFS re-logs its
        // streams within a few hundred misses on this loopy workload,
        // so the windows must close quickly: their total cycle charge
        // stays well under the run — if recovery never converged,
        // nearly every post-first-flush cycle would be billed as
        // refill.
        let spec = WorkloadSpec::tiny_server().with_ctx_switch_period(period);
        let exp = ExpConfig { instructions: 40_000, warmup: 2_000, seed };
        let sys = cmp_sys(1);
        let report = run_cell(
            &CellPrograms::build(&spec.into(), seed),
            &SystemSpec::Kind(SystemKind::TifsVirtualized),
            &exp,
            &sys,
        );
        let core = &report.cores[0];
        // Geometric switch gaps can (rarely) skip the whole measured
        // region; those draws measure nothing about recovery.
        if core.flushes == 0 {
            return Ok(());
        }
        // Billing starts at the first post-flush baseline miss, so a
        // draw whose misses all land before its first flush legitimately
        // bills nothing — and must bill *exactly* nothing.
        if core.refill_misses == 0 {
            prop_assert_eq!(
                core.refill_cycles, 0,
                "refill cycles billed before any post-flush miss"
            );
            return Ok(());
        }
        prop_assert!(core.refill_cycles > 0, "refill misses billed no cycles");
        prop_assert!(
            core.refill_cycles < report.cycles * 6 / 10,
            "refill windows absorbed {}/{} cycles over {} flushes — \
             coverage is not converging back to its pre-flush mean",
            core.refill_cycles, report.cycles, core.flushes
        );
    }
}
