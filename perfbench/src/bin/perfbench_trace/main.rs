//! Layer-traced run: a discarded warm-up pass and one untraced pass of
//! the workload (the end-to-end code path), then one traced pass that
//! rebuilds the same cells or analyses with spans around the calls into
//! each layer. Prints every
//! per-layer metric; the last line of standard output is one JSON object
//! that `run.py` reads. Spans are kept in memory and written to
//! `--spans-out` at the end.

mod hooks;
mod layers;

use std::fs;
use std::process::ExitCode;

use tifs_perfbench::checks::Tally;
use tifs_perfbench::cli::{check_pinned_env, Settings, Workload, USAGE};
use tifs_perfbench::json::Json;
use tifs_perfbench::pass::run_pass;
use tifs_perfbench::stats::{median, tail, Tail};

use hooks::{Clock, SAMPLE_EVERY};
use layers::{CellSpan, PfTotals, Trace, FIG13_SYSTEMS, MIX_SYSTEMS};

/// Systems whose prefetcher reports `issued` (accuracy is supplied /
/// issued).
const ACCURACY_SYSTEMS: [&str; 9] = [
    "fdip",
    "discontinuity",
    "tifs_unbounded",
    "tifs_dedicated",
    "tifs_virtualized",
    "tifs_private",
    "tifs_quota",
    "tifs_pool1",
    "tifs_pool2",
];

/// A metric: name, value, unit, and a note printed beside it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            // An empty f64 sum is -0.0; report a plain zero.
            value: value + 0.0,
            unit,
            note: String::new(),
        });
    }

    fn tail(&mut self, name: &str, t: Tail, scale: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value: t.value * scale,
            unit,
            note: format!(
                "p{:.1} of {} samples, {} beyond",
                t.percentile, t.samples, t.beyond
            ),
        });
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host-time metrics of the traced pass.
fn host_metrics(t: &Trace, untraced_wall_s: f64, m: &mut Metrics) {
    m.push(
        "trace.workload.build_ms",
        t.build_ns.iter().sum::<f64>() / 1e6,
        "ms",
    );
    m.push("trace.workload.programs", t.programs as f64, "count");
    let (records, walker_ns) = if t.units.is_empty() {
        let records = t.cells.iter().map(|c| c.walker_records).sum::<u64>();
        (records, t.cells.iter().map(|c| c.walker_ns).sum::<f64>())
    } else {
        let records = t.units.iter().map(|u| u.records).sum::<u64>();
        (records, t.units.iter().map(|u| u.walker_ns).sum::<f64>())
    };
    m.push("trace.walker.records", records as f64, "count");
    m.push(
        "trace.walker.ns_per_record",
        ratio(walker_ns, records as f64),
        "ns",
    );
    let cycles = t.cells.iter().map(|c| c.cycles).sum::<u64>();
    let cmp_self_ns = t.cells.iter().map(CellSpan::cmp_self_ns).sum::<f64>();
    m.push("sim.cmp.cycles", cycles as f64, "count");
    m.push("sim.cmp.self_ms", cmp_self_ns / 1e6, "ms");
    m.push(
        "sim.cmp.ns_per_cycle",
        ratio(cmp_self_ns, cycles as f64),
        "ns",
    );
    let systems = FIG13_SYSTEMS
        .iter()
        .map(|(name, _)| *name)
        .chain(MIX_SYSTEMS);
    for system in systems {
        let mut pf = PfTotals::default();
        for cell in t.cells.iter().filter(|c| c.system == system) {
            pf.add(&cell.pf);
        }
        m.push(format!("pf.{system}.tick_ms"), pf.tick_ns / 1e6, "ms");
        m.push(format!("pf.{system}.fetch_ms"), pf.fetch_ns / 1e6, "ms");
        m.push(format!("pf.{system}.retire_ms"), pf.retire_ns / 1e6, "ms");
        m.push(format!("pf.{system}.calls"), pf.calls as f64, "count");
    }
    let instructions = t.units.iter().map(|u| u.records).sum::<u64>();
    let miss_trace_ns = t.units.iter().map(|u| u.ns - u.walker_ns).sum::<f64>();
    m.push("sim.miss_trace.instructions", instructions as f64, "count");
    m.push(
        "sim.miss_trace.ns_per_instr",
        ratio(miss_trace_ns, instructions as f64),
        "ns",
    );
    for name in [
        "sequitur.categorize_ms",
        "sequitur.streams_ms",
        "sequitur.heuristics_ms",
        "analysis.lookahead_ms",
        "analysis.functional_tifs_ms",
    ] {
        m.push(
            name,
            t.analyses.get(name).copied().unwrap_or(0.0) / 1e6,
            "ms",
        );
    }
    m.push("trace.store.writes", t.store_writes as f64, "count");
    m.push("trace.store.bytes", t.store_bytes as f64, "bytes");
    m.push("trace.store.save_us_p50", median(&t.save_ns) / 1e3, "us");
    m.tail("trace.store.save_us_tail", tail(&t.save_ns), 1e-3, "us");
    m.push("trace.store.load_us_p50", median(&t.load_ns) / 1e3, "us");
    m.tail("trace.store.load_us_tail", tail(&t.load_ns), 1e-3, "us");
    m.push("sim.stats.encode_ns", median(&t.encode_ns), "ns");
    m.push("sim.stats.decode_ns", median(&t.decode_ns), "ns");
    let unit_ns: Vec<f64> = if t.units.is_empty() {
        t.cells.iter().map(|c| c.cell_ns).collect()
    } else {
        t.units.iter().map(|u| u.ns).collect()
    };
    m.push("engine.cells", unit_ns.len() as f64, "count");
    m.push("engine.cell_ms_p50", median(&unit_ns) / 1e6, "ms");
    m.tail("engine.cell_ms_tail", tail(&unit_ns), 1e-6, "ms");
    m.push(
        "engine.idle_frac",
        1.0 - ratio(unit_ns.iter().sum(), t.fanout_ns * t.workers as f64),
        "fraction",
    );
    m.push(
        "trace.overhead_pct",
        (t.wall_ns / 1e9 - untraced_wall_s) / untraced_wall_s * 100.0,
        "%",
    );
}

/// Modelled metrics, read from the traced reports (exact at a fixed
/// seed; zero where the workload runs no such system).
fn modelled_metrics(t: &Trace, m: &mut Metrics) {
    let ipc_of = |group: usize, system: &str| {
        t.reports
            .iter()
            .find(|(g, s, _)| *g == group && *s == system)
            .map(|(_, _, r)| r.aggregate_ipc())
    };
    let counter = |system: &str, name: &str| {
        t.reports
            .iter()
            .filter(|(_, s, _)| *s == system)
            .map(|(_, _, r)| r.prefetcher_counter(name).unwrap_or(0.0))
            .sum::<f64>()
    };
    let systems = FIG13_SYSTEMS
        .iter()
        .map(|(name, _)| *name)
        .chain(MIX_SYSTEMS);
    for system in systems {
        let cells: Vec<_> = t.reports.iter().filter(|(_, s, _)| *s == system).collect();
        let speedups: Vec<f64> = cells
            .iter()
            .filter_map(|(g, _, r)| Some(ratio(r.aggregate_ipc(), ipc_of(*g, t.base_system)?)))
            .collect();
        let hits: u64 = cells
            .iter()
            .flat_map(|(_, _, r)| &r.cores)
            .map(|c| c.prefetch_hits)
            .sum();
        let base: u64 = cells
            .iter()
            .flat_map(|(_, _, r)| &r.cores)
            .map(|c| c.baseline_misses())
            .sum();
        m.push(
            format!("model.{system}.speedup"),
            ratio(speedups.iter().sum(), speedups.len() as f64),
            "x",
        );
        m.push(
            format!("model.{system}.coverage"),
            ratio(hits as f64, base as f64),
            "fraction",
        );
    }
    for system in ACCURACY_SYSTEMS {
        m.push(
            format!("pf.{system}.accuracy"),
            ratio(counter(system, "supplied"), counter(system, "issued")),
            "fraction",
        );
    }
    let cores = || t.reports.iter().flat_map(|(_, _, r)| &r.cores);
    let core_cycles = cores().map(|c| c.cycles).sum::<u64>() as f64;
    let kinst = cores().map(|c| c.retired).sum::<u64>() as f64 / 1000.0;
    let l2 = |f: fn(&tifs_sim::l2::L2Stats) -> u64| {
        t.reports.iter().map(|(_, _, r)| f(&r.l2)).sum::<u64>() as f64
    };
    m.push(
        "sim.core.fetch_stall_frac",
        ratio(
            cores().map(|c| c.fetch_stall_cycles).sum::<u64>() as f64,
            core_cycles,
        ),
        "fraction",
    );
    m.push(
        "sim.core.refill_cycles_frac",
        ratio(
            cores().map(|c| c.refill_cycles).sum::<u64>() as f64,
            core_cycles,
        ),
        "fraction",
    );
    m.push(
        "sim.l2.inst_miss_ratio",
        ratio(l2(|s| s.inst_misses), l2(|s| s.inst_hits + s.inst_misses)),
        "fraction",
    );
    m.push(
        "sim.l2.queue_delay_per_kinst",
        ratio(l2(|s| s.queue_delay), kinst),
        "cycles/kinst",
    );
    m.push(
        "sim.l2.mshr_rejects_per_kinst",
        ratio(l2(|s| s.mshr_rejects), kinst),
        "count/kinst",
    );
    let tifs: Vec<&str> = FIG13_SYSTEMS
        .iter()
        .map(|(name, _)| *name)
        .chain(MIX_SYSTEMS)
        .filter(|s| s.starts_with("tifs"))
        .collect();
    let tifs_counter = |name: &str| tifs.iter().map(|s| counter(s, name)).sum::<f64>();
    let tifs_cells = t
        .reports
        .iter()
        .filter(|(_, s, _)| s.starts_with("tifs"))
        .count() as f64;
    let late = tifs_counter("late_supplies");
    m.push(
        "tifs.index_hit_ratio",
        if tifs_counter("lookups") == 0.0 {
            0.0
        } else {
            1.0 - tifs_counter("failed_lookups") / tifs_counter("lookups")
        },
        "fraction",
    );
    m.push(
        "tifs.late_frac",
        ratio(late, late + tifs_counter("timely_supplies")),
        "fraction",
    );
    m.push(
        "tifs.port_wait",
        ratio(tifs_counter("meta_port_wait"), tifs_cells),
        "cycles",
    );
    m.push(
        "tifs.pool_evictions",
        ratio(tifs_counter("iml_pool_evictions"), tifs_cells),
        "count",
    );
}

fn spans_json(t: &Trace) -> Json {
    let cells = t
        .cells
        .iter()
        .map(|c| {
            let mut o = Json::obj();
            o.set("cell", Json::Str(c.label.clone()))
                .set("system", Json::Str(c.system.into()))
                .set("cell_ms", Json::Num(c.cell_ns / 1e6))
                .set("pf_build_ms", Json::Num(c.pf_build_ns / 1e6))
                .set("run_ms", Json::Num(c.run_ns / 1e6))
                .set("cmp_self_ms", Json::Num(c.cmp_self_ns() / 1e6))
                .set("walker_ms", Json::Num(c.walker_ns / 1e6))
                .set("walker_records", Json::Int(c.walker_records))
                .set("pf_tick_ms", Json::Num(c.pf.tick_ns / 1e6))
                .set("pf_fetch_ms", Json::Num(c.pf.fetch_ns / 1e6))
                .set("pf_retire_ms", Json::Num(c.pf.retire_ns / 1e6))
                .set("pf_other_ms", Json::Num(c.pf.other_ns / 1e6))
                .set("pf_calls", Json::Int(c.pf.calls))
                .set(
                    "interrupted_samples",
                    Json::Int(c.pf.interrupted + c.walker_interrupted),
                )
                .set("cycles", Json::Int(c.cycles));
            o
        })
        .collect();
    let units = t
        .units
        .iter()
        .map(|u| {
            let mut o = Json::obj();
            o.set("unit", Json::Str(u.label.clone()))
                .set("ms", Json::Num(u.ns / 1e6))
                .set("walker_ms", Json::Num(u.walker_ns / 1e6))
                .set("records", Json::Int(u.records))
                .set("interrupted_samples", Json::Int(u.walker_interrupted));
            o
        })
        .collect();
    let mut analyses = Json::obj();
    for (name, ns) in &t.analyses {
        analyses.set(*name, Json::Num(ns / 1e6));
    }
    let ms = |v: &[f64]| Json::Arr(v.iter().map(|ns| Json::Num(ns / 1e6)).collect());
    let mut o = Json::obj();
    o.set("cells", Json::Arr(cells))
        .set("units", Json::Arr(units))
        .set("analyses_ms", analyses)
        .set("build_ms", ms(&t.build_ns))
        .set("store_save_ms", ms(&t.save_ns))
        .set("store_load_ms", ms(&t.load_ns))
        .set("report_key_ms", ms(&t.key_ns));
    o
}

/// The acceptance probes: `sim.cmp.self_ms` must be positive in every
/// cell, and on `fig13` FDIP's tick should be its largest cost.
fn print_probes(t: &Trace) {
    let interrupted: u64 = t
        .cells
        .iter()
        .map(|c| c.pf.interrupted + c.walker_interrupted)
        .chain(t.units.iter().map(|u| u.walker_interrupted))
        .sum();
    println!("probe: {interrupted} sampled calls dropped as interrupted");
    if let Some(min) = t
        .cells
        .iter()
        .map(CellSpan::cmp_self_ns)
        .min_by(f64::total_cmp)
    {
        let nonpositive = t.cells.iter().filter(|c| c.cmp_self_ns() <= 0.0).count();
        println!(
            "probe: sim.cmp self time is positive in {} of {} cells (minimum {:.3} ms)",
            t.cells.len() - nonpositive,
            t.cells.len(),
            min / 1e6
        );
    }
    let fdip: Vec<&CellSpan> = t.cells.iter().filter(|c| c.system == "fdip").collect();
    if !fdip.is_empty() {
        let tick_largest = fdip
            .iter()
            .filter(|c| c.pf.tick_ns > c.pf.fetch_ns.max(c.pf.retire_ns).max(c.pf.other_ns))
            .count();
        let share: f64 =
            fdip.iter().map(|c| c.pf.tick_ns / c.run_ns).sum::<f64>() / fdip.len() as f64;
        println!(
            "probe: FDIP tick is its largest prefetcher cost in {tick_largest} of {} cells \
             ({:.1}% of cell run time on average)",
            fdip.len(),
            share * 100.0
        );
    }
}

fn main() -> ExitCode {
    let s = match Settings::from_args(std::env::args().skip(1)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench-trace: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_pinned_env() {
        eprintln!("perfbench-trace: {e}\n{USAGE}");
        return ExitCode::from(2);
    }
    let clock = Clock::calibrate();
    // The first pass in a process runs cold (the analyses' is about a
    // third slower), so it is discarded: the untraced reference pass and
    // the traced pass both run warm.
    let untraced = match run_pass(&s).and_then(|warm_up| {
        drop(warm_up);
        run_pass(&s)
    }) {
        Ok(pass) => pass,
        Err(e) => {
            eprintln!("perfbench-trace: untraced pass failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traced = match s.workload {
        Workload::Fig13 => layers::fig13(&s, &clock, &untraced),
        Workload::FleetMix => layers::fleet_mix(&s, &clock, &untraced),
        Workload::TraceAnalyses => layers::trace_analyses(&s, &clock, &untraced),
    };
    let trace = match traced {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench-trace: traced pass failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let untraced_wall_s = untraced.wall.as_secs_f64();
    let mut tally = Tally::default();
    tally.merge(untraced.checked.tally.clone());
    tally.merge(trace.tally.clone());

    let mut m = Metrics::default();
    host_metrics(&trace, untraced_wall_s, &mut m);
    modelled_metrics(&trace, &mut m);

    let exp = s.exp();
    println!(
        "perfbench-trace {} seed {}: {} workers, {} + {} warmup instructions/core, \
         1 in {SAMPLE_EVERY} per-call timings sampled, timer overhead {:.1} ns",
        s.workload.name(),
        s.seed,
        s.workers,
        exp.instructions,
        exp.warmup,
        clock.overhead_ns
    );
    println!(
        "untraced wall {:.4} s, traced wall {:.4} s",
        untraced_wall_s,
        trace.wall_ns / 1e9
    );
    for metric in &m.0 {
        println!(
            "{:<34} {:>16.6} {:<12} {}",
            metric.name, metric.value, metric.unit, metric.note
        );
    }
    print_probes(&trace);
    for note in &tally.notes {
        eprintln!("perfbench-trace: check failed: {note}");
    }
    if let Some(path) = &s.spans_out {
        if let Err(e) = fs::write(path, format!("{}\n", spans_json(&trace))) {
            eprintln!("perfbench-trace: cannot write {}: {e}", path.display());
        }
    }

    let mut metrics = Json::obj();
    for metric in &m.0 {
        metrics.set(metric.name.clone(), Json::metric(metric.value, metric.unit));
    }
    let mut out = Json::obj();
    out.set("workload", Json::Str(s.workload.name().into()))
        .set("seed", Json::Int(s.seed))
        .set("workers", Json::Int(s.workers as u64))
        .set("instructions", Json::Int(exp.instructions))
        .set("warmup", Json::Int(exp.warmup))
        .set(
            "digest",
            Json::Str(format!("{:032x}", untraced.checked.digest())),
        )
        .set("untraced_wall_s", Json::Num(untraced_wall_s))
        .set("traced_wall_s", Json::Num(trace.wall_ns / 1e9))
        .set("attempted", Json::Int(tally.attempted))
        .set("failed", Json::Int(tally.failed))
        .set("correct", Json::Bool(tally.failed == 0))
        .set(
            "notes",
            Json::Arr(tally.notes.iter().cloned().map(Json::Str).collect()),
        )
        .set("metrics", metrics);
    println!("{out}");
    ExitCode::SUCCESS
}
