//! The traced pass of each workload. Each rebuilds the workload's cells
//! or analyses the way the engine builds them, with spans around the
//! calls into each layer, writes through fresh stores, reads back, and
//! compares every output with the untraced pass run just before it.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use tifs_core::MetadataOrg;
use tifs_experiments::engine::{
    build_prefetcher, functional_section, par, report_key, report_key_cell, ExecMode, Lab,
    SystemSpec, ANALYSIS_CORES,
};
use tifs_experiments::figures::{fig03, fig05, fig06, fig10, fig11, fig_mix, tables};
use tifs_experiments::harness::{ExpConfig, SystemKind};
use tifs_experiments::sink;
use tifs_perfbench::checks::{read_trace_store, report_violations, Tally};
use tifs_perfbench::cli::{Settings, WORK_DIR};
use tifs_perfbench::pass::{Pass, StoreDir};
use tifs_sim::cmp::Cmp;
use tifs_sim::config::SystemConfig;
use tifs_sim::miss_trace::miss_trace_with_model;
use tifs_sim::prefetch::IPrefetcher;
use tifs_sim::stats::SimReport;
use tifs_trace::{
    BlockAddr, CellPrograms, CellWorkload, FetchRecord, ReportKey, ReportStore, TraceKey,
    TraceStore, Workload, WorkloadSpec,
};

use crate::hooks::{Clock, PrefetcherCalls, Sampled, TracedPrefetcher, TracedStream};

/// Metric names of the Figure 13 systems.
pub const FIG13_SYSTEMS: [(&str, SystemKind); 7] = [
    ("nextline", SystemKind::NextLine),
    ("fdip", SystemKind::Fdip),
    ("discontinuity", SystemKind::Discontinuity),
    ("tifs_unbounded", SystemKind::TifsUnbounded),
    ("tifs_dedicated", SystemKind::TifsDedicated),
    ("tifs_virtualized", SystemKind::TifsVirtualized),
    ("perfect", SystemKind::Perfect),
];

/// Metric names of the mix study's metadata organizations.
pub const MIX_SYSTEMS: [&str; 4] = ["tifs_private", "tifs_quota", "tifs_pool1", "tifs_pool2"];

fn fig13_name(kind: SystemKind) -> &'static str {
    FIG13_SYSTEMS
        .iter()
        .find(|(_, k)| *k == kind)
        .map_or("other", |(name, _)| name)
}

fn mix_name(org: MetadataOrg) -> &'static str {
    if org == MetadataOrg::PrivatePerCore {
        "tifs_private"
    } else if org == MetadataOrg::shared_quota(1) {
        "tifs_quota"
    } else if org == MetadataOrg::shared_pool(1) {
        "tifs_pool1"
    } else if org == MetadataOrg::shared_pool(fig_mix::WIDE_WAYS) {
        "tifs_pool2"
    } else {
        "tifs_other"
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

/// Estimated time in one prefetcher's callbacks.
#[derive(Clone, Copy, Debug, Default)]
pub struct PfTotals {
    /// `tick`.
    pub tick_ns: f64,
    /// `on_block_fetch` plus `on_fetch_instr`.
    pub fetch_ns: f64,
    /// `on_retire_fetch_miss`.
    pub retire_ns: f64,
    /// `on_l2_evict` and `on_flush`.
    pub other_ns: f64,
    /// Calls of every kind.
    pub calls: u64,
    /// Sampled calls dropped as interrupted.
    pub interrupted: u64,
}

impl PfTotals {
    fn of(calls: &PrefetcherCalls) -> PfTotals {
        PfTotals {
            tick_ns: calls.tick.estimated_ns(),
            fetch_ns: calls.fetch.estimated_ns(),
            retire_ns: calls.retire.estimated_ns(),
            other_ns: calls.other.estimated_ns(),
            calls: calls.calls(),
            interrupted: calls.interrupted(),
        }
    }

    pub fn add(&mut self, o: &PfTotals) {
        self.tick_ns += o.tick_ns;
        self.fetch_ns += o.fetch_ns;
        self.retire_ns += o.retire_ns;
        self.other_ns += o.other_ns;
        self.calls += o.calls;
        self.interrupted += o.interrupted;
    }

    fn total_ns(&self) -> f64 {
        self.tick_ns + self.fetch_ns + self.retire_ns + self.other_ns
    }
}

/// One traced timing cell.
#[derive(Clone, Debug)]
pub struct CellSpan {
    /// `workload / system`.
    pub label: String,
    /// The system's metric name.
    pub system: &'static str,
    /// Cells of one group share a baseline (a workload on `fig13`; a
    /// scenario, flush arm and budget on `fleet_mix`).
    pub group: usize,
    /// The whole cell: prefetcher construction and the run.
    pub cell_ns: f64,
    /// `engine::build_prefetcher`.
    pub pf_build_ns: f64,
    /// `Cmp::run_with_warmup`.
    pub run_ns: f64,
    /// Simulated cycles, warmup plus measured.
    pub cycles: u64,
    /// Fetch-stream `next` calls.
    pub walker_records: u64,
    /// Estimated time in them.
    pub walker_ns: f64,
    /// Sampled `next` calls dropped as interrupted.
    pub walker_interrupted: u64,
    /// Estimated time in the prefetcher.
    pub pf: PfTotals,
}

impl CellSpan {
    /// The core pipeline, L2 and tick loop: the run less its walker and
    /// prefetcher spans.
    pub fn cmp_self_ns(&self) -> f64 {
        self.run_ns - self.walker_ns - self.pf.total_ns()
    }
}

/// One traced functional miss-trace pass (one workload, one core).
#[derive(Clone, Debug)]
pub struct UnitSpan {
    /// `workload / core`.
    pub label: String,
    /// The whole pass.
    pub ns: f64,
    /// Walker `next` calls (= instructions).
    pub records: u64,
    /// Estimated time in them.
    pub walker_ns: f64,
    /// Sampled `next` calls dropped as interrupted.
    pub walker_interrupted: u64,
}

/// Everything one traced pass measured.
#[derive(Debug, Default)]
pub struct Trace {
    /// Worker threads of the fan-outs.
    pub workers: usize,
    /// One per `Workload::build` or `CellPrograms::build`; on
    /// `trace_analyses`, one over the six builds of a one-thread `Lab`.
    pub build_ns: Vec<f64>,
    /// Programs those builds produced.
    pub programs: u64,
    /// Timing cells.
    pub cells: Vec<CellSpan>,
    /// Functional miss-trace passes.
    pub units: Vec<UnitSpan>,
    /// Wall time of the fan-out of cells (or functional passes).
    pub fanout_ns: f64,
    /// Analysis spans by metric name.
    pub analyses: BTreeMap<&'static str, f64>,
    /// Store writes during the pass.
    pub store_writes: u64,
    /// Bytes of the entries written.
    pub store_bytes: u64,
    /// Store `save` durations.
    pub save_ns: Vec<f64>,
    /// Store `load` durations.
    pub load_ns: Vec<f64>,
    /// `SimReport::to_canonical_bytes` durations.
    pub encode_ns: Vec<f64>,
    /// `SimReport::from_canonical_bytes` durations.
    pub decode_ns: Vec<f64>,
    /// `report_key` / `report_key_cell` durations.
    pub key_ns: Vec<f64>,
    /// The span comparable with the untraced timed phase.
    pub wall_ns: f64,
    /// Reports of the traced cells, with their group and system.
    pub reports: Vec<(usize, &'static str, SimReport)>,
    /// The baseline system speedups are measured over.
    pub base_system: &'static str,
    /// Checks, including traced against untraced outputs.
    pub tally: Tally,
}

struct CellRun {
    span: CellSpan,
    report: SimReport,
}

/// Which cell a traced run is: its label, system and baseline group.
struct CellId {
    label: String,
    system: &'static str,
    group: usize,
}

/// Runs one cell as `engine::run_cell` / `run_cell_mix` do, with each
/// core's walker behind a [`TracedStream`] and the prefetcher behind a
/// [`TracedPrefetcher`].
fn run_cell<'w, W>(
    id: CellId,
    walker: impl Fn(usize) -> W,
    build: impl FnOnce() -> Box<dyn IPrefetcher + 'w>,
    exp: &ExpConfig,
    sys: &SystemConfig,
    clock: &Clock,
) -> CellRun
where
    W: Iterator<Item = FetchRecord> + 'w,
{
    let start = Instant::now();
    let records = Sampled::default();
    let calls = PrefetcherCalls::default();
    let (report, pf_build_ns, run_ns, cycles) = {
        let (pf, pf_build_ns) = timed(build);
        let streams: Vec<Box<dyn Iterator<Item = FetchRecord> + '_>> = (0..sys.num_cores)
            .map(|c| Box::new(TracedStream::new(walker(c), &records, clock)) as Box<_>)
            .collect();
        let mut cmp = Cmp::new(
            sys.clone(),
            streams,
            Box::new(TracedPrefetcher::new(pf, &calls, clock)),
        );
        let (report, run_ns) = timed(|| cmp.run_with_warmup(exp.warmup, exp.instructions));
        (report, pf_build_ns, run_ns, cmp.now())
    };
    CellRun {
        span: CellSpan {
            label: id.label,
            system: id.system,
            group: id.group,
            cell_ns: start.elapsed().as_nanos() as f64,
            pf_build_ns,
            run_ns,
            cycles,
            walker_records: records.calls(),
            walker_ns: records.estimated_ns(),
            walker_interrupted: records.interrupted(),
            pf: PfTotals::of(&calls),
        },
        report,
    }
}

/// Writes every traced cell through `store` (encode, save), then reads
/// each back through a fresh handle (load, decode) and checks it against
/// what was written, the model's identities, and the untraced pass's
/// entry under the same key.
fn write_and_compare(
    t: &mut Trace,
    runs: Vec<CellRun>,
    keys: Vec<ReportKey>,
    dir: &Path,
    untraced: &Pass,
    measured: u64,
    phase: Instant,
) -> io::Result<()> {
    let store = ReportStore::new(dir)?;
    let mut written = Vec::with_capacity(runs.len());
    for (run, key) in runs.iter().zip(&keys) {
        let (bytes, encode_ns) = timed(|| run.report.to_canonical_bytes());
        let (saved, save_ns) = timed(|| store.save(key, &bytes));
        t.encode_ns.push(encode_ns);
        t.save_ns.push(save_ns);
        if let Err(e) = saved {
            t.tally
                .fail(format!("{}: save failed: {e}", run.span.label));
        }
        written.push(bytes);
    }
    t.wall_ns = phase.elapsed().as_nanos() as f64;
    t.store_writes = store.stats().writes;

    let reread = ReportStore::new(dir)?;
    let reference = ReportStore::new(untraced.state.dirs.reports())?;
    for ((run, key), bytes) in runs.into_iter().zip(&keys).zip(&written) {
        t.store_bytes += fs::metadata(reread.entry_path(key)).map_or(0, |m| m.len());
        let (loaded, load_ns) = timed(|| reread.load(key));
        t.load_ns.push(load_ns);
        let loaded = loaded.unwrap_or_default();
        let (decoded, decode_ns) = timed(|| SimReport::from_canonical_bytes(&loaded));
        t.decode_ns.push(decode_ns);
        let label = &run.span.label;
        let problem = if loaded != *bytes {
            Some("re-read differs from what was written".to_string())
        } else if decoded.map_or(true, |r| r != run.report) {
            Some("decode does not reproduce the report".to_string())
        } else if reference.load(key).as_deref() != Some(bytes.as_slice()) {
            Some("traced report differs from the untraced one".to_string())
        } else {
            report_violations(&run.report, measured).into_iter().next()
        };
        t.tally.check(problem.is_none(), || {
            format!("{label}: {}", problem.unwrap_or_default())
        });
        t.reports
            .push((run.span.group, run.span.system, run.report));
        t.cells.push(run.span);
    }
    Ok(())
}

/// `fig13`: the six workloads built as `Lab` builds them, then the 42
/// cells as `engine::run_cell` runs them.
pub fn fig13(s: &Settings, clock: &Clock, untraced: &Pass) -> io::Result<Trace> {
    let exp = s.exp();
    let sys = SystemConfig::table2();
    let dirs = StoreDir::create(Path::new(WORK_DIR), "fig13-traced")?;
    let specs = WorkloadSpec::all_six();
    let built = par::map(&specs, s.workers, |_, spec| {
        timed(|| Workload::build(spec, exp.seed))
    });
    let mut t = Trace {
        workers: s.workers,
        base_system: "nextline",
        build_ns: built.iter().map(|(_, ns)| *ns).collect(),
        programs: built.len() as u64,
        ..Trace::default()
    };
    let systems: Vec<SystemSpec> = std::iter::once(SystemKind::NextLine)
        .chain(SystemKind::figure13())
        .map(SystemSpec::Kind)
        .collect();
    let pairs: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|w| (0..systems.len()).map(move |k| (w, k)))
        .collect();
    let phase = Instant::now();
    let runs = par::map(&pairs, s.workers, |_, &(w, k)| {
        let workload = &built[w].0;
        let system = &systems[k];
        let name = match system {
            SystemSpec::Kind(kind) => fig13_name(*kind),
            _ => "other",
        };
        let id = CellId {
            label: format!("{} / {name}", specs[w].name),
            system: name,
            group: w,
        };
        run_cell(
            id,
            |c| workload.walker(c),
            || build_prefetcher(system, workload, &sys, exp.seed),
            &exp,
            &sys,
            clock,
        )
    });
    t.fanout_ns = phase.elapsed().as_nanos() as f64;
    let keys = pairs
        .iter()
        .map(|&(w, k)| {
            let (key, ns) = timed(|| {
                report_key(
                    &specs[w],
                    exp.seed,
                    &systems[k],
                    &exp,
                    &sys,
                    ExecMode::Coupled,
                )
            });
            t.key_ns.push(ns);
            key
        })
        .collect();
    write_and_compare(
        &mut t,
        runs,
        keys,
        &dirs.reports(),
        untraced,
        exp.instructions,
        phase,
    )?;
    Ok(t)
}

fn with_flush(cell: &CellWorkload, period: u64) -> CellWorkload {
    let flush = |spec: &WorkloadSpec| spec.clone().with_ctx_switch_period(period);
    match cell {
        CellWorkload::Homogeneous(spec) => CellWorkload::Homogeneous(flush(spec)),
        CellWorkload::Mix(specs) => CellWorkload::Mix(specs.iter().map(flush).collect()),
    }
}

/// `fleet_mix`: the mix study's default grid rebuilt row by row and
/// column by column as `fig_mix::run_on` lays it out, programs built as
/// `run_mix_cells` builds them, and each cell run as `run_cell_mix` runs
/// it.
pub fn fleet_mix(s: &Settings, clock: &Clock, untraced: &Pass) -> io::Result<Trace> {
    let exp = s.exp();
    let cores = fig_mix::MIX_CORES;
    let sys = SystemConfig {
        num_cores: cores,
        ..SystemConfig::table2()
    };
    let dirs = StoreDir::create(Path::new(WORK_DIR), "fleet_mix-traced")?;
    let rows: Vec<(String, CellWorkload)> = fig_mix::default_scenarios(cores)
        .into_iter()
        .flat_map(|(name, cell)| {
            let flushed = with_flush(&cell, fig_mix::FLUSH_PERIOD);
            [
                (format!("{name}/flush-off"), cell),
                (format!("{name}/flush-on"), flushed),
            ]
        })
        .collect();
    let budgets = fig_mix::default_budgets_kb();
    let columns: Vec<(usize, MetadataOrg, SystemSpec)> = budgets
        .iter()
        .enumerate()
        .flat_map(|(b, &kb)| {
            fig_mix::orgs()
                .into_iter()
                .map(move |org| (b, org, fig_mix::system_for(org, kb, cores)))
        })
        .collect();
    let mut t = Trace {
        workers: s.workers,
        base_system: "tifs_private",
        ..Trace::default()
    };
    let phase = Instant::now();
    let programs = par::map(&rows, s.workers, |_, (_, cell)| {
        timed(|| CellPrograms::build(cell, exp.seed))
    });
    t.build_ns = programs.iter().map(|(_, ns)| *ns).collect();
    t.programs = programs.iter().map(|(p, _)| p.slots().len() as u64).sum();
    let pairs: Vec<(usize, usize)> = (0..rows.len())
        .flat_map(|r| (0..columns.len()).map(move |c| (r, c)))
        .collect();
    let cells_phase = Instant::now();
    let runs = par::map(&pairs, s.workers, |_, &(r, c)| {
        let cell = &programs[r].0;
        let (budget, org, system) = &columns[c];
        let id = CellId {
            label: format!("{} / {}", rows[r].0, system.name()),
            system: mix_name(*org),
            group: r * budgets.len() + budget,
        };
        run_cell(
            id,
            |core| cell.walker(core),
            || build_prefetcher(system, cell.workload_for_core(0), &sys, exp.seed),
            &exp,
            &sys,
            clock,
        )
    });
    t.fanout_ns = cells_phase.elapsed().as_nanos() as f64;
    let keys = pairs
        .iter()
        .map(|&(r, c)| {
            let (key, ns) = timed(|| {
                report_key_cell(
                    &rows[r].1,
                    exp.seed,
                    &columns[c].2,
                    &exp,
                    &sys,
                    ExecMode::Coupled,
                )
            });
            t.key_ns.push(ns);
            key
        })
        .collect();
    write_and_compare(
        &mut t,
        runs,
        keys,
        &dirs.reports(),
        untraced,
        exp.instructions,
        phase,
    )?;
    Ok(t)
}

/// `trace_analyses`: the functional miss-trace pass run per (workload,
/// core) as `Lab::miss_traces` runs it, with each walker behind a
/// [`TracedStream`]; the traces seeded into the lab's trace store under
/// the lab's own keys and loaded back by forcing `Lab::miss_traces`
/// before the analyses; then each analysis's `run_on`.
pub fn trace_analyses(s: &Settings, clock: &Clock, untraced: &Pass) -> io::Result<Trace> {
    let exp = s.exp();
    let sys = SystemConfig::table2();
    let dirs = StoreDir::create(Path::new(WORK_DIR), "trace_analyses-traced")?;
    let specs = WorkloadSpec::all_six();
    // Built on one thread, so the span is the sum of the six
    // `Workload::build` calls, as the per-build spans of the grids sum.
    let (lab, build_ns) = timed(|| Lab::build_with_threads(specs.clone(), exp, 1));
    let lab = lab.with_store(TraceStore::new(dirs.traces())?);
    let mut t = Trace {
        workers: s.workers,
        build_ns: vec![build_ns],
        programs: lab.len() as u64,
        ..Trace::default()
    };
    let units: Vec<(usize, usize)> = (0..lab.len())
        .flat_map(|i| (0..ANALYSIS_CORES).map(move |c| (i, c)))
        .collect();
    let phase = Instant::now();
    let passes = par::map(&units, s.workers, |_, &(i, c)| {
        let records = Sampled::default();
        let stream = TracedStream::new(lab.workload(i).walker(c), &records, clock);
        let (trace, ns) =
            timed(|| miss_trace_with_model(stream.take(exp.instructions as usize), &sys).0);
        let span = UnitSpan {
            label: format!("{} / core {c}", specs[i].name),
            ns,
            records: records.calls(),
            walker_ns: records.estimated_ns(),
            walker_interrupted: records.interrupted(),
        };
        (trace, span)
    });
    t.fanout_ns = phase.elapsed().as_nanos() as f64;
    let store = lab.store().expect("the traced lab has a trace store");
    let mut traces: Vec<Vec<Vec<BlockAddr>>> = vec![Vec::new(); lab.len()];
    for (&(i, _), (trace, span)) in units.iter().zip(passes) {
        traces[i].push(trace);
        t.units.push(span);
    }
    for (i, spec) in specs.iter().enumerate() {
        let key = TraceKey::for_section(
            &functional_section("miss_trace"),
            spec,
            exp.seed,
            exp.instructions,
            ANALYSIS_CORES,
        );
        let (saved, ns) = timed(|| store.save_blocks(&key, &traces[i]));
        t.save_ns.push(ns);
        if let Err(e) = saved {
            t.tally
                .fail(format!("{}: trace save failed: {e}", spec.name));
        }
    }
    for i in 0..lab.len() {
        let (_, ns) = timed(|| lab.miss_traces(i).len());
        t.load_ns.push(ns);
    }
    let stats = store.stats();
    t.tally
        .check(stats.hits == lab.len() as u64 && stats.misses == 0, || {
            format!(
                "the lab served {} of {} miss traces from the seeded store",
                stats.hits,
                lab.len()
            )
        });
    let mut analyses = Vec::new();
    let mut span = |name: &'static str, f: &dyn Fn() -> sink::StructuredReport| {
        let (report, ns) = timed(f);
        t.analyses.insert(name, ns);
        analyses.push(report);
    };
    span("table1", &|| tables::structured_table1(&lab));
    span("sequitur.categorize_ms", &|| {
        fig03::structured(&fig03::run_on(&lab))
    });
    span("sequitur.streams_ms", &|| {
        fig05::structured(&fig05::run_on(&lab))
    });
    span("sequitur.heuristics_ms", &|| {
        fig06::structured(&fig06::run_on(&lab))
    });
    span("analysis.lookahead_ms", &|| {
        fig10::structured(&fig10::run_on(&lab))
    });
    span("analysis.functional_tifs_ms", &|| {
        fig11::structured(&fig11::run_on(&lab))
    });
    t.wall_ns = phase.elapsed().as_nanos() as f64;
    for report in &analyses {
        let json = sink::to_json(report);
        let same = untraced
            .checked
            .jsons
            .iter()
            .any(|(name, untraced_json)| *name == report.name && *untraced_json == json);
        t.tally.check(same, || {
            format!(
                "{}: traced output differs from the untraced one",
                report.name
            )
        });
    }
    t.store_writes = store.stats().writes;
    let entries = read_trace_store(&dirs.traces(), store.stats(), &mut t.tally)?;
    t.tally.check(entries == untraced.checked.traces, || {
        "traced miss traces differ from the untraced ones".into()
    });
    t.store_bytes = entries
        .iter()
        .map(|(key, _)| fs::metadata(store.entry_path(&TraceKey(*key))).map_or(0, |m| m.len()))
        .sum();
    Ok(t)
}
