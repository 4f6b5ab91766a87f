//! The engine's central guarantee: a grid yields bit-identical reports
//! run-to-run and regardless of how its cells are scheduled (serial,
//! parallel, oversubscribed). Every batching/caching layer builds on
//! this.

use tifs_core::MetadataOrg;
use tifs_experiments::engine::{build_prefetcher, run_cell, ExperimentGrid, Lab, SystemSpec};
use tifs_experiments::figures::fig_mix;
use tifs_experiments::harness::{ExpConfig, SystemKind};
use tifs_experiments::sink::{self, ResultsSink};
use tifs_sim::cmp::Cmp;
use tifs_sim::config::SystemConfig;
use tifs_sim::prefetch::{FetchKind, IPrefetcher, PrefetchCtx};
use tifs_trace::store::{ReportStore, TraceStore};
use tifs_trace::workload::{CellPrograms, CellWorkload, WorkloadSpec};
use tifs_trace::{BlockAddr, FetchRecord};

fn exp() -> ExpConfig {
    ExpConfig {
        instructions: 20_000,
        warmup: 20_000,
        seed: 42,
    }
}

fn grid() -> ExperimentGrid {
    ExperimentGrid::new(exp())
        .with_system_config(SystemConfig::single_core())
        .workloads([WorkloadSpec::tiny_test(), WorkloadSpec::web_zeus()])
        .systems([
            SystemSpec::Kind(SystemKind::NextLine),
            SystemSpec::Kind(SystemKind::Fdip),
            SystemSpec::Kind(SystemKind::TifsVirtualized),
        ])
}

/// Full-fidelity fingerprint of every cell report: all core counters, L2
/// counters, and prefetcher counters, via the Debug rendering.
fn fingerprint(results: &tifs_experiments::GridResults) -> String {
    format!("{results:?}")
}

#[test]
fn same_grid_twice_is_identical() {
    let a = fingerprint(&grid().run());
    let b = fingerprint(&grid().run());
    assert_eq!(a, b, "two runs of one grid must agree exactly");
}

#[test]
fn serial_and_parallel_schedules_agree() {
    let serial = fingerprint(&grid().serial().run());
    for threads in [2, 8, 32] {
        let parallel = fingerprint(&grid().threads(threads).run());
        assert_eq!(
            serial, parallel,
            "parallel run with {threads} workers diverged from serial"
        );
    }
}

#[test]
fn shared_lab_and_fresh_builds_agree() {
    // Workloads built once and shared across cells must equal per-run
    // builds: the lab is a cache, never a semantic change.
    let lab = Lab::build(
        vec![WorkloadSpec::tiny_test(), WorkloadSpec::web_zeus()],
        exp(),
    );
    let shared = fingerprint(&grid().run_on(&lab));
    let fresh = fingerprint(&grid().run());
    assert_eq!(shared, fresh);
}

#[test]
fn cold_start_equals_warm_start_byte_identically() {
    // The trace store is a pure cache: a cold run (store empty, traces
    // computed and written through) and a warm run (traces streamed back
    // from disk) must produce identical analysis traces and
    // byte-identical structured reports.
    let dir = std::env::temp_dir().join(format!("tifs-determinism-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = || vec![WorkloadSpec::tiny_test(), WorkloadSpec::web_zeus()];
    let lab_with_store =
        || Lab::build(specs(), exp()).with_store(TraceStore::new(&dir).expect("store dir"));

    let cold = lab_with_store();
    let cold_traces: Vec<_> = (0..cold.len())
        .map(|i| cold.miss_traces(i).to_vec())
        .collect();
    let cold_stats = cold.store().unwrap().stats();
    assert_eq!(
        (cold_stats.hits, cold_stats.misses, cold_stats.writes),
        (0, 2, 2),
        "cold run must build and persist every trace"
    );
    let cold_json = sink::to_json(&sink::grid_report(
        "determinism",
        "d",
        &grid().run_on(&cold),
    ));

    let warm = lab_with_store();
    let warm_traces: Vec<_> = (0..warm.len())
        .map(|i| warm.miss_traces(i).to_vec())
        .collect();
    let warm_stats = warm.store().unwrap().stats();
    assert_eq!(
        (warm_stats.hits, warm_stats.misses, warm_stats.writes),
        (2, 0, 0),
        "warm run must hit the store for every trace, never re-simulate"
    );
    assert_eq!(cold_traces, warm_traces, "store round-trip changed a trace");
    let warm_json = sink::to_json(&sink::grid_report(
        "determinism",
        "d",
        &grid().run_on(&warm),
    ));
    assert_eq!(
        cold_json, warm_json,
        "cold and warm structured reports must be byte-identical"
    );

    // A storeless lab agrees with both.
    let plain = Lab::build(specs(), exp());
    let plain_traces: Vec<_> = (0..plain.len())
        .map(|i| plain.miss_traces(i).to_vec())
        .collect();
    assert_eq!(plain_traces, warm_traces);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_store_cold_equals_warm_byte_identically() {
    // The report store is a pure cache over whole timing runs: a cold
    // grid (store empty, every cell simulated and written through) and a
    // warm grid (every cell streamed back from disk, zero recomputes)
    // must emit byte-identical structured reports under `results/`.
    let scratch = std::env::temp_dir().join(format!(
        "tifs-determinism-report-store-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    let store_dir = scratch.join("store");
    let lab_with_store = || {
        Lab::build(
            vec![WorkloadSpec::tiny_test(), WorkloadSpec::web_zeus()],
            exp(),
        )
        .with_report_store(ReportStore::new(&store_dir).expect("store dir"))
    };
    let cells = 2 * 3; // two workloads × three systems
    let write_results = |lab: &Lab, tag: &str| {
        let dir = scratch.join(tag);
        let sink = ResultsSink::new(&dir).expect("results dir");
        let report = sink::grid_report("report_store_determinism", "d", &grid().run_on(lab));
        sink.write(&report).expect("write results");
        (
            std::fs::read(dir.join("report_store_determinism.json")).expect("json bytes"),
            std::fs::read(dir.join("report_store_determinism.csv")).expect("csv bytes"),
        )
    };

    let cold = lab_with_store();
    let cold_files = write_results(&cold, "cold");
    let s = cold.report_store().unwrap().stats();
    assert_eq!(
        (s.hits, s.misses, s.writes, s.evictions),
        (0, cells, cells, 0),
        "cold run must simulate and persist every cell"
    );

    let warm = lab_with_store();
    let warm_files = write_results(&warm, "warm");
    let s = warm.report_store().unwrap().stats();
    assert_eq!(
        (s.hits, s.misses, s.writes, s.evictions),
        (cells, 0, 0, 0),
        "warm run must hit the report store for every cell, never re-simulate"
    );
    assert_eq!(
        cold_files, warm_files,
        "cold and warm results/ artifacts must be byte-identical"
    );

    // A storeless lab agrees with both, and so does the raw cell runner:
    // the store changes cost, never content.
    let plain = Lab::build(
        vec![WorkloadSpec::tiny_test(), WorkloadSpec::web_zeus()],
        exp(),
    );
    let plain_files = write_results(&plain, "plain");
    assert_eq!(plain_files, warm_files);
    let direct = run_cell(
        &CellPrograms::build(&WorkloadSpec::tiny_test().into(), exp().seed),
        &SystemSpec::Kind(SystemKind::NextLine),
        &exp(),
        &SystemConfig::single_core(),
    );
    let via_store = grid().run_on(&warm);
    assert_eq!(
        via_store.row(0).report(SystemKind::NextLine).unwrap(),
        &direct,
        "a cached report must equal a freshly simulated one exactly"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn analysis_traces_deterministic_and_schedule_independent() {
    let lab = || {
        Lab::build(
            vec![WorkloadSpec::tiny_test(), WorkloadSpec::web_zeus()],
            exp(),
        )
    };
    let a = lab();
    let b = lab();
    assert_eq!(a.miss_traces(0), b.miss_traces(0));
    assert_eq!(a.miss_traces(1), b.miss_traces(1));
    // analyze() results must arrive in workload order whatever the
    // scheduling, and repeat runs must agree.
    let names_a = a.analyze(|ctx| ctx.name());
    let names_b = b.analyze(|ctx| ctx.name());
    assert_eq!(names_a, names_b);
    assert_eq!(
        names_a,
        vec!["tiny-test".to_string(), "Web Zeus".to_string()]
    );
}

/// Forwards every callback to the prefetcher it wraps but keeps the
/// default `observes_instructions`, so the cores call `on_fetch_instr`
/// on every fetched instruction whatever the wrapped prefetcher answers.
struct Forwarding<'a>(Box<dyn IPrefetcher + 'a>);

impl IPrefetcher for Forwarding<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_fetch_instr(&mut self, ctx: &mut PrefetchCtx<'_>, rec: &FetchRecord) {
        self.0.on_fetch_instr(ctx, rec);
    }

    fn on_block_fetch(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        block: BlockAddr,
        kind: FetchKind,
    ) -> Option<u64> {
        self.0.on_block_fetch(ctx, block, kind)
    }

    fn on_retire_fetch_miss(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        block: BlockAddr,
        supplied: bool,
    ) {
        self.0.on_retire_fetch_miss(ctx, block, supplied);
    }

    fn on_l2_evict(&mut self, block: BlockAddr) {
        self.0.on_l2_evict(block);
    }

    fn on_flush(&mut self, ctx: &mut PrefetchCtx<'_>) {
        self.0.on_flush(ctx);
    }

    fn tick(&mut self, ctx: &mut PrefetchCtx<'_>) {
        self.0.tick(ctx);
    }

    fn counters(&self) -> Vec<(String, f64)> {
        self.0.counters()
    }

    fn reset_counters(&mut self) {
        self.0.reset_counters();
    }
}

#[test]
fn skipped_instruction_calls_change_no_report() {
    // A prefetcher that answers `observes_instructions` with `false` is
    // never called per instruction; calling it anyway must not change a
    // byte. Every Figure 13 system runs on a homogeneous cell, and one
    // shared-pool TIFS configuration on a mix cell with context switches.
    let exp = ExpConfig {
        instructions: 8_000,
        warmup: 8_000,
        seed: 42,
    };
    let sys = SystemConfig::table2();
    let homogeneous = CellPrograms::build(&WorkloadSpec::web_zeus().into(), exp.seed);
    let mix = CellPrograms::build(
        &CellWorkload::Mix(vec![
            WorkloadSpec::oltp_db2(),
            WorkloadSpec::web_zeus().with_ctx_switch_period(1_500),
        ]),
        exp.seed,
    );
    let mut cases: Vec<(SystemSpec, &CellPrograms)> = SystemKind::figure13()
        .into_iter()
        .map(|kind| (SystemSpec::Kind(kind), &homogeneous))
        .collect();
    cases.push((
        fig_mix::system_for(MetadataOrg::shared_pool(1), 9.75, sys.num_cores),
        &mix,
    ));
    let mut skipping = 0;
    for (system, programs) in cases {
        let built = run_cell(programs, &system, &exp, &sys);
        let inner = build_prefetcher(&system, programs.workload_for_core(0), &sys, exp.seed);
        if !inner.observes_instructions() {
            skipping += 1;
        }
        let streams = (0..sys.num_cores).map(|c| programs.walker(c)).collect();
        let mut cmp = Cmp::new(sys.clone(), streams, Box::new(Forwarding(inner)));
        let forwarded = cmp.run_with_warmup(exp.warmup, exp.instructions);
        assert!(
            built.to_canonical_bytes() == forwarded.to_canonical_bytes(),
            "{}: a per-instruction call changed the report",
            system.name()
        );
    }
    assert_eq!(skipping, 6, "every system but FDIP skips the calls");
}
