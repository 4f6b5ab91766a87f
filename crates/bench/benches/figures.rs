//! One bench per paper table/figure kernel, at reduced scale.
//!
//! These measure the cost of regenerating each result; the full-scale
//! regenerations (paper-size inputs, all six workloads) are the `tifs`
//! driver's subcommands (`fig01`…`fig13`, `table1`, `table2`).

use criterion::{criterion_group, criterion_main, Criterion};

use tifs_experiments::engine::{run_cell, Lab};
use tifs_experiments::figures::{fig01, fig03, fig05, fig06, fig10, fig11, fig12, fig13, tables};
use tifs_experiments::harness::{ExpConfig, SystemKind};
use tifs_experiments::sink;
use tifs_sim::config::SystemConfig;
use tifs_trace::workload::{CellPrograms, WorkloadSpec};

/// Reduced-scale configuration: one short window, enough to exercise every
/// code path of the figure pipelines.
fn small() -> ExpConfig {
    ExpConfig {
        instructions: 60_000,
        warmup: 60_000,
        seed: 42,
    }
}

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    g.sample_size(10);
    let table1 = ExpConfig {
        seed: 42,
        ..ExpConfig::default()
    };
    g.bench_function("table1", |b| {
        b.iter(|| sink::to_text(&tables::structured_table1(&Lab::all_six(table1))).len())
    });
    g.bench_function("table2", |b| {
        b.iter(|| sink::to_text(&tables::structured_table2()).len())
    });
    g.finish();
}

fn bench_fig01_kernel(c: &mut Criterion) {
    // Kernel: one probabilistic-coverage timing point.
    let programs = CellPrograms::build(&WorkloadSpec::web_zeus().into(), 42);
    let cfg = small();
    let system = SystemKind::Probabilistic(0.5).into();
    let mut g = c.benchmark_group("fig01");
    g.sample_size(10);
    g.bench_function("one_coverage_point", |b| {
        b.iter(|| run_cell(&programs, &system, &cfg, &SystemConfig::table2()).aggregate_ipc())
    });
    g.finish();
}

fn bench_trace_analyses(c: &mut Criterion) {
    // The lab is built and its miss traces walked before the group, so
    // each bench times its analysis, not six workload builds and 24 walks.
    let lab = Lab::all_six(small());
    for i in 0..lab.len() {
        lab.miss_traces(i);
    }
    let mut g = c.benchmark_group("analyses");
    g.sample_size(10);
    g.bench_function("fig03_categorization", |b| {
        b.iter(|| fig03::run_on(&lab).len())
    });
    g.bench_function("fig05_stream_lengths", |b| {
        b.iter(|| fig05::run_on(&lab).len())
    });
    g.bench_function("fig06_heuristics", |b| b.iter(|| fig06::run_on(&lab).len()));
    g.bench_function("fig10_lookahead", |b| b.iter(|| fig10::run_on(&lab).len()));
    g.bench_function("fig11_capacity_sweep", |b| {
        b.iter(|| fig11::run_on(&lab).len())
    });
    g.finish();
}

fn bench_timing_studies(c: &mut Criterion) {
    let cfg = small();
    let mut g = c.benchmark_group("timing");
    g.sample_size(10);
    g.bench_function("fig12_traffic", |b| {
        b.iter(|| fig12::run_on(&Lab::all_six(cfg)).len())
    });
    g.bench_function("fig13_one_workload_tifs", |b| {
        // Kernel of Figure 13: one TIFS timing run.
        let programs = CellPrograms::build(&WorkloadSpec::oltp_db2().into(), 42);
        let system = SystemKind::TifsVirtualized.into();
        b.iter(|| run_cell(&programs, &system, &cfg, &SystemConfig::table2()).aggregate_ipc())
    });
    g.finish();
}

fn bench_full_pipelines(c: &mut Criterion) {
    // Whole-figure pipelines at minimal scale: one sample proves each
    // regeneration path end to end without dominating bench wall time.
    let cfg = ExpConfig {
        instructions: 20_000,
        warmup: 20_000,
        seed: 42,
    };
    let mut g = c.benchmark_group("full");
    g.sample_size(10);
    g.bench_function("fig01_pipeline", |b| {
        b.iter(|| fig01::run_on(&Lab::all_six(cfg)).len())
    });
    g.bench_function("fig13_pipeline", |b| {
        b.iter(|| fig13::run_on(&Lab::all_six(cfg)).len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tables,
    bench_fig01_kernel,
    bench_trace_analyses,
    bench_timing_studies,
    bench_full_pipelines
);
criterion_main!(benches);
