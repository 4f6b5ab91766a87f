//! The shared experiment engine.
//!
//! Every figure, table, and subcommand of the evaluation is a grid of
//! *cells* — (row × system) simulations under one [`ExpConfig`] and one
//! [`SystemConfig`], each row a [`CellWorkload`] — or an *analysis* over
//! per-workload miss traces. This module is the single place that
//!
//! * runs cells: [`ExperimentGrid::run_on`] is the one cell pipeline,
//!   for homogeneous rows and workload mixes alike — it resolves cached
//!   cells, computes the missing ones and writes them through;
//! * builds each program image **once** and shares it across every
//!   system and row that walks it ([`Lab::cell_programs`]; a build costs
//!   as much as a short timing run);
//! * constructs core fetch streams and prefetchers ([`run_cell`] is the
//!   only stream-construction site in the experiments crate);
//! * fans independent cells out across threads ([`par::map`], a
//!   rayon-style ordered parallel map on `std::thread::scope` — the
//!   workspace builds offline and cannot depend on rayon itself);
//! * caches per-workload L1-I miss traces so the trace analyses share
//!   one functional-model pass ([`Lab::miss_traces`], which also keeps
//!   core 0's Figure 10 lookahead marks), and — with a
//!   persistent [`TraceStore`] attached ([`Lab::with_store`]) — writes
//!   them through to disk so later processes warm-start without
//!   re-running the functional model at all;
//! * caches whole timing runs: with a persistent [`ReportStore`] attached
//!   ([`Lab::with_report_store`], `TIFS_REPORT_STORE`), every cell's
//!   [`SimReport`] is keyed by a [`report_key_cell`] fingerprint of the
//!   *full* cell configuration and persisted through the canonical report
//!   codec, so a repeat grid run recomputes nothing.
//!
//! Every cell runs the paper's coupled CMP: its cores share one L2, one
//! memory channel and one prefetcher instance. Cells are deterministic:
//! a grid produces bit-identical [`SimReport`]s whether run serially or
//! in parallel, cold or warm, because every cell derives its state only
//! from (spec, seed, system) — verified by the `engine_determinism`
//! integration test.
//!
//! ```
//! use tifs_experiments::engine::ExperimentGrid;
//! use tifs_experiments::harness::{ExpConfig, SystemKind};
//! use tifs_sim::config::SystemConfig;
//! use tifs_trace::workload::WorkloadSpec;
//!
//! let cfg = ExpConfig { instructions: 5_000, warmup: 5_000, seed: 3 };
//! let grid = ExperimentGrid::new(cfg)
//!     .with_system_config(SystemConfig::single_core())
//!     .workloads([WorkloadSpec::tiny_test()])
//!     .systems([SystemKind::NextLine, SystemKind::TifsVirtualized]);
//! let results = grid.run();
//! let row = results.row(0);
//! assert!(row.speedup_over(SystemKind::TifsVirtualized, SystemKind::NextLine) > 0.0);
//! ```

use std::sync::OnceLock;

use tifs_core::{
    CapacityPartition, ImlStorage, IndexKind, MetadataOrg, TifsConfig, TifsPrefetcher,
};
use tifs_prefetch::{DiscontinuityPrefetcher, Fdip, ProbabilisticPrefetcher};
use tifs_sim::cmp::Cmp;
use tifs_sim::config::SystemConfig;
use tifs_sim::prefetch::{IPrefetcher, NullPrefetcher};
use tifs_sim::stats::{SimReport, SIM_REPORT_LAYOUT_VERSION};
use tifs_trace::codec::REPORT_VERSION;
use tifs_trace::filter::to_symbols;
use tifs_trace::store::{
    hash_workload_spec, Fingerprint, ReportKey, ReportStore, TraceKey, TraceStore,
};
use tifs_trace::workload::{distinct_shapes, CellPrograms, CellWorkload, Workload, WorkloadSpec};
use tifs_trace::{BlockAddr, FetchRecord};

use crate::harness::{walk_core, ExpConfig, SystemKind};

/// How a grid cell is executed. The coupled CMP is the only mode. The
/// enum survives because the benchmark's traced binary
/// (`perfbench-trace`) passes it to [`report_key`] and
/// [`report_key_cell`]; its tag still hashes as 0, so no key moved. Tags
/// 1 and 2 belonged to the retired per-core sharded and
/// contention-convolved modes and must not be reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// The paper's coupled CMP: every core shares one L2, one memory
    /// channel, and one prefetcher instance.
    Coupled,
}

/// Cores the cached analysis miss traces are collected for (the paper's
/// trace studies use the 4-core CMP).
pub const ANALYSIS_CORES: usize = 4;

/// Store section name for derivations that run the functional fetch
/// model: appends the model's cache geometry (L1-I size/ways, next-line
/// depth) to `base`, so retuning [`SystemConfig::table2`] re-addresses
/// store entries instead of silently reusing stale ones. `base` carries
/// its own derivation version (e.g. `miss_trace`, `fig10_lookahead_v1`).
pub fn functional_section(base: &str) -> String {
    let sys = SystemConfig::table2();
    format!(
        "{base}/l1i{}x{}nl{}",
        sys.l1i_bytes, sys.l1i_ways, sys.next_line_depth
    )
}

/// Rayon-style ordered parallel map over borrowed items, built on
/// `std::thread::scope` (the workspace builds offline, so rayon itself is
/// unavailable; this mirrors its work-distribution semantics for the
/// engine's needs).
pub mod par {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// Worker count: `TIFS_THREADS` if set (1 forces serial), else the
    /// machine's available parallelism.
    #[expect(
        clippy::disallowed_methods,
        reason = "TIFS_THREADS sets the worker count; results are identical at any count"
    )]
    pub fn parallelism() -> usize {
        if let Some(n) = std::env::var("TIFS_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            return n.max(1);
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Applies `f` to every item, distributing items over `threads`
    /// workers, and returns results in item order. `threads <= 1` runs
    /// inline. Results are identical to the serial order-preserving map
    /// for any pure `f`.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` (every worker is joined first).
    pub fn map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = threads.min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let f = &f;
        let next = &next;
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // A send only fails if the receiver is gone, which
                        // means the scope is already unwinding.
                        if tx.send((i, f(i, &items[i]))).is_err() {
                            break;
                        }
                    })
                })
                .collect();
            drop(tx);
            for (i, r) in rx {
                slots[i] = Some(r);
            }
            // The scope's own join returns once each closure has ended,
            // while its thread may still be exiting and holding its malloc
            // arena. A joined thread has released it, so the next map's
            // workers reuse these arenas instead of opening new ones, each
            // of which would keep its own freed memory resident.
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("worker filled slot"))
            .collect()
    }
}

/// A system to measure: a named baseline/TIFS variant, or an arbitrary
/// TIFS configuration (the ablation studies).
#[derive(Clone, Debug, PartialEq)]
pub enum SystemSpec {
    /// One of the paper's named systems.
    Kind(SystemKind),
    /// TIFS under an explicit configuration.
    Tifs {
        /// Display label for tables.
        label: String,
        /// The configuration under test.
        config: TifsConfig,
    },
}

impl From<SystemKind> for SystemSpec {
    fn from(kind: SystemKind) -> SystemSpec {
        SystemSpec::Kind(kind)
    }
}

impl SystemSpec {
    /// A labelled TIFS ablation cell.
    pub fn tifs(label: impl Into<String>, config: TifsConfig) -> SystemSpec {
        SystemSpec::Tifs {
            label: label.into(),
            config,
        }
    }

    /// Display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            SystemSpec::Kind(k) => k.name(),
            SystemSpec::Tifs { label, .. } => label.clone(),
        }
    }
}

/// Builds the prefetcher for a system over a given workload (the one
/// prefetcher-construction site of the experiments layer).
pub fn build_prefetcher<'a>(
    system: &SystemSpec,
    workload: &'a Workload,
    sys: &SystemConfig,
    seed: u64,
) -> Box<dyn IPrefetcher + 'a> {
    let kind = match system {
        SystemSpec::Tifs { config, .. } => {
            return Box::new(TifsPrefetcher::new(sys.num_cores, *config));
        }
        SystemSpec::Kind(kind) => *kind,
    };
    match kind {
        SystemKind::NextLine => Box::new(NullPrefetcher),
        SystemKind::Fdip => Box::new(Fdip::new(&workload.program, sys.num_cores)),
        SystemKind::Discontinuity => Box::new(DiscontinuityPrefetcher::new(sys.num_cores)),
        SystemKind::TifsUnbounded => {
            Box::new(TifsPrefetcher::new(sys.num_cores, TifsConfig::unbounded()))
        }
        SystemKind::TifsDedicated => {
            Box::new(TifsPrefetcher::new(sys.num_cores, TifsConfig::dedicated()))
        }
        SystemKind::TifsVirtualized => Box::new(TifsPrefetcher::new(
            sys.num_cores,
            TifsConfig::virtualized(),
        )),
        SystemKind::Probabilistic(p) => Box::new(ProbabilisticPrefetcher::new(p, seed ^ 0x9D)),
        SystemKind::Perfect => Box::new(ProbabilisticPrefetcher::perfect(seed ^ 0x9D)),
    }
}

/// Runs one grid cell: `system` on the `sys` CMP, core `c` walking
/// [`CellPrograms::walker`]`(c)`. The only place in the experiments crate
/// that constructs core fetch streams. A homogeneous cell is the
/// degenerate case: every core walks the one slot-0 program.
///
/// The prefetcher is built against core 0's workload; that argument only
/// matters to [`SystemKind::Fdip`], which pre-decodes one program image —
/// mix grids measure TIFS/NextLine systems, whose construction ignores
/// it. (An FDIP mix cell would need per-core decoders; gate it here if
/// that study ever materializes.)
pub fn run_cell(
    programs: &CellPrograms,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
) -> SimReport {
    let streams: Vec<_> = (0..sys.num_cores)
        .map(|c| Box::new(programs.walker(c)) as Box<dyn Iterator<Item = FetchRecord>>)
        .collect();
    let pf = build_prefetcher(system, programs.workload_for_core(0), sys, exp.seed);
    let mut cmp = Cmp::new(sys.clone(), streams, pf);
    cmp.run_with_warmup(exp.warmup, exp.instructions)
}

// ---------------------------------------------------------------------------
// Report-store keys — content addresses over the full cell configuration.
// ---------------------------------------------------------------------------

/// Content address of one cell's [`SimReport`] in the persistent
/// [`ReportStore`]: a [`Fingerprint`] over *every* input the timing run
/// depends on — both format versions (container and payload layout), the
/// full [`WorkloadSpec`], the seed the workload was *built* with
/// (`workload_seed` — a [`Lab`] may be built under a different
/// [`ExpConfig`] than the grid runs with), the grid's seed and measured
/// and warmup instruction budgets, every [`SystemConfig`] field, the
/// system/prefetcher configuration, and the execution mode tag.
/// Any change to any of them addresses different content, so a stale
/// report is never read — it is simply never addressed again.
pub fn report_key(
    spec: &WorkloadSpec,
    workload_seed: u64,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
    mode: ExecMode,
) -> ReportKey {
    let mut h = Fingerprint::new();
    h.u64(u64::from(REPORT_VERSION));
    h.u64(u64::from(SIM_REPORT_LAYOUT_VERSION));
    hash_workload_spec(&mut h, spec);
    finish_report_key(h, workload_seed, system, exp, sys, mode)
}

/// Content address of one heterogeneous-mix cell's [`SimReport`].
///
/// The key hashes *append-only* relative to [`report_key`]: the cell is
/// canonicalized first ([`CellWorkload::canonical`]), and a homogeneous
/// cell — including any degenerate mix — delegates to [`report_key`]
/// byte for byte, so every store entry minted before the mix axis
/// existed stays warm (pinned by the `report_key_stability` suite). A
/// genuine mix replaces the single-spec section with a tagged sequence:
/// the tag `"mix"`, the position count, then each position's full
/// [`hash_workload_spec`] *in core-assignment order* — so two mixes
/// differing in any per-core spec, or only in assignment order
/// (`[A, B]` vs `[B, A]`), address disjoint content. Keying the cell by
/// an unordered spec *set* (or by one representative spec) was the
/// collision class this addresses: distinct fleets must never share a
/// cached report.
pub fn report_key_cell(
    cell: &CellWorkload,
    workload_seed: u64,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
    mode: ExecMode,
) -> ReportKey {
    match cell.canonical() {
        CellWorkload::Homogeneous(spec) => report_key(&spec, workload_seed, system, exp, sys, mode),
        CellWorkload::Mix(specs) => {
            let mut h = Fingerprint::new();
            h.u64(u64::from(REPORT_VERSION));
            h.u64(u64::from(SIM_REPORT_LAYOUT_VERSION));
            h.u64(0x006d_6978); // "mix"
            h.u64(specs.len() as u64);
            for spec in &specs {
                hash_workload_spec(&mut h, spec);
            }
            finish_report_key(h, workload_seed, system, exp, sys, mode)
        }
    }
}

/// The shared tail of [`report_key`] / [`report_key_cell`]: everything
/// after the workload section. Keeping one implementation guarantees the
/// two key flavours feed byte-identical suffixes, so the homogeneous
/// delegation above really is exact.
fn finish_report_key(
    mut h: Fingerprint,
    workload_seed: u64,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
    mode: ExecMode,
) -> ReportKey {
    h.u64(workload_seed);
    h.u64(exp.seed);
    h.u64(exp.instructions);
    h.u64(exp.warmup);
    hash_system_config(&mut h, sys);
    hash_system_spec(&mut h, system);
    h.u64(mode_tag(mode));
    ReportKey(h.finish())
}

/// Feeds every [`SystemConfig`] field (exhaustive destructuring: a new
/// field without a hash line is a compile error, never a stale hit).
fn hash_system_config(h: &mut Fingerprint, sys: &SystemConfig) {
    let SystemConfig {
        num_cores,
        width,
        rob_entries,
        fetch_queue,
        l1i_bytes,
        l1i_ways,
        next_line_depth,
        l1d_latency,
        l2_bytes,
        l2_ways,
        l2_banks,
        l2_latency,
        l2_bank_occupancy,
        l2_mshrs,
        mem_latency,
        mem_gap,
        mispredict_penalty,
        store_writeback_prob,
    } = sys;
    h.u64(*num_cores as u64);
    h.u64(*width as u64);
    h.u64(*rob_entries as u64);
    h.u64(*fetch_queue as u64);
    h.u64(*l1i_bytes as u64);
    h.u64(*l1i_ways as u64);
    h.u64(*next_line_depth);
    h.u64(*l1d_latency);
    h.u64(*l2_bytes as u64);
    h.u64(*l2_ways as u64);
    h.u64(*l2_banks as u64);
    h.u64(*l2_latency);
    h.u64(*l2_bank_occupancy);
    h.u64(*l2_mshrs as u64);
    h.u64(*mem_latency);
    h.u64(*mem_gap);
    h.u64(*mispredict_penalty);
    h.f64(*store_writeback_prob);
}

/// The tag [`finish_report_key`] feeds for an execution mode. Tags 1 and
/// 2 are retired (see [`ExecMode`]).
fn mode_tag(mode: ExecMode) -> u64 {
    match mode {
        ExecMode::Coupled => 0,
    }
}

/// The tag [`hash_system_spec`] feeds for a top-level system variant.
/// Append-only: a new variant takes the next free tag. Tag 2 is retired
/// (the grammar arm's `SystemSpec::Grammar`) and must not be reused: a
/// reused tag would address store entries written for another system.
fn spec_tag(system: &SystemSpec) -> u64 {
    match system {
        SystemSpec::Kind(_) => 0,
        SystemSpec::Tifs { .. } => 1,
    }
}

/// The tag [`hash_system_spec`] feeds for a named kind. Append-only, like
/// [`spec_tag`]; tag 8 is retired (the grammar arm's
/// `SystemKind::TifsGrammar`).
fn kind_tag(kind: SystemKind) -> u64 {
    match kind {
        SystemKind::NextLine => 0,
        SystemKind::Fdip => 1,
        SystemKind::Discontinuity => 2,
        SystemKind::TifsUnbounded => 3,
        SystemKind::TifsDedicated => 4,
        SystemKind::TifsVirtualized => 5,
        SystemKind::Probabilistic(_) => 6,
        SystemKind::Perfect => 7,
    }
}

/// Feeds the system under test: its tags, then the probability of a
/// probabilistic kind or the full TIFS configuration of an ablation
/// cell. Labels are display metadata and deliberately not hashed — two
/// labels over one configuration are the same content.
fn hash_system_spec(h: &mut Fingerprint, system: &SystemSpec) {
    h.u64(spec_tag(system));
    match system {
        SystemSpec::Kind(kind) => {
            h.u64(kind_tag(*kind));
            if let SystemKind::Probabilistic(p) = kind {
                h.f64(*p);
            }
        }
        SystemSpec::Tifs { label: _, config } => hash_tifs_config(h, config),
    }
}

/// Feeds every [`TifsConfig`] field (exhaustive destructuring).
///
/// The `metadata` organization hashes *append-only*: the default
/// [`MetadataOrg::PrivatePerCore`] contributes nothing, so every report
/// key minted before the sharing axis existed is unchanged and all
/// pre-existing store entries stay warm — pinned by the
/// `report_key_stability` regression suite. Shared organizations append
/// a tagged suffix and therefore address disjoint content.
fn hash_tifs_config(h: &mut Fingerprint, cfg: &TifsConfig) {
    let TifsConfig {
        storage,
        index,
        svb_blocks,
        stream_contexts,
        rate_target,
        end_of_stream,
        metadata,
        index_capacity,
    } = cfg;
    match storage {
        ImlStorage::Unbounded => h.u64(0),
        ImlStorage::Dedicated { entries_per_core } => {
            h.u64(1);
            h.u64(*entries_per_core as u64);
        }
        ImlStorage::Virtualized { entries_per_core } => {
            h.u64(2);
            h.u64(*entries_per_core as u64);
        }
    }
    h.u64(match index {
        IndexKind::Dedicated => 0,
        IndexKind::Embedded => 1,
    });
    h.u64(*svb_blocks as u64);
    h.u64(*stream_contexts as u64);
    h.u64(*rate_target as u64);
    h.bool(*end_of_stream);
    match metadata {
        MetadataOrg::PrivatePerCore => {}
        MetadataOrg::Shared {
            ways,
            capacity_partition,
        } => {
            h.u64(1);
            h.u64(*ways as u64);
            h.u64(match capacity_partition {
                CapacityPartition::PerCoreQuota => 0,
                CapacityPartition::FullyShared => 1,
            });
        }
    }
    // Append-only: an unbounded Index Table (the only configuration that
    // existed before this knob) contributes nothing, so pre-existing keys
    // are unchanged; bounded tables append a tagged suffix ("idxc").
    if let Some(entries) = index_capacity {
        h.u64(0x6964_7863);
        h.u64(*entries as u64);
    }
}

/// Loads and decodes one cached cell report. The frame (magic, version,
/// key, checksum) is verified by the store; a payload that then fails the
/// canonical decode — possible only through a logic bug, since the layout
/// version is part of the key — is evicted loudly so the cell recomputes
/// instead of looping on a bad entry.
fn load_cached_report(store: &ReportStore, key: &ReportKey) -> Option<SimReport> {
    let bytes = store.load(key)?;
    match SimReport::from_canonical_bytes(&bytes) {
        Ok(report) => Some(report),
        Err(e) => {
            store.evict(key, &e);
            None
        }
    }
}

/// A set of workloads built once and shared by every figure that runs on
/// them: the substrate under both timing grids ([`ExperimentGrid::run_on`])
/// and trace analyses ([`Lab::analyze`]).
pub struct Lab {
    exp: ExpConfig,
    workloads: Vec<Workload>,
    traces: Vec<OnceLock<AnalysisTraces>>,
    store: Option<TraceStore>,
    report_store: Option<ReportStore>,
}

/// One workload's cached functional pass.
struct AnalysisTraces {
    /// Per-core miss traces.
    misses: Vec<Vec<BlockAddr>>,
    /// Core 0's lookahead marks ([`CoreWalk::marks`]), kept only when
    /// this lab walked the cores itself: a store entry holds traces alone.
    ///
    /// [`CoreWalk::marks`]: crate::harness::CoreWalk::marks
    lookahead_marks: Option<Vec<u64>>,
}

impl Lab {
    /// Builds every workload (in parallel, each exactly once).
    pub fn build(specs: Vec<WorkloadSpec>, exp: ExpConfig) -> Lab {
        Lab::build_with_threads(specs, exp, par::parallelism())
    }

    /// As [`build`](Self::build), with an explicit worker count.
    pub fn build_with_threads(specs: Vec<WorkloadSpec>, exp: ExpConfig, threads: usize) -> Lab {
        let workloads = par::map(&specs, threads, |_, spec| Workload::build(spec, exp.seed));
        let traces = specs.iter().map(|_| OnceLock::new()).collect();
        Lab {
            exp,
            workloads,
            traces,
            store: None,
            report_store: None,
        }
    }

    /// The paper's six Table-I workloads.
    pub fn all_six(exp: ExpConfig) -> Lab {
        Lab::build(WorkloadSpec::all_six(), exp)
    }

    /// Attaches a persistent [`TraceStore`]: cached miss traces are read
    /// from it when present and written through on first build. The store
    /// is a pure cache — entries are keyed by a fingerprint of every
    /// input, so attached and detached labs produce identical traces.
    pub fn with_store(mut self, store: TraceStore) -> Lab {
        self.store = Some(store);
        self
    }

    /// Attaches a persistent [`ReportStore`]: grid cells run through this
    /// lab ([`ExperimentGrid::run_on`]) read their [`SimReport`]s from it
    /// when present and write through on first computation. Like the
    /// trace store, it is a pure cache — entries are keyed by a
    /// [`report_key_cell`] fingerprint of every input, so attached and
    /// detached labs produce identical reports.
    pub fn with_report_store(mut self, store: ReportStore) -> Lab {
        self.report_store = Some(store);
        self
    }

    /// Attaches the stores selected by the environment: the trace store
    /// (`TIFS_TRACE_STORE`) *and* the report store (`TIFS_REPORT_STORE`),
    /// each defaulting to its directory when unset and disabled by
    /// `off`/`0`/`none`. The `tifs` driver calls this; library users and
    /// tests stay hermetic unless they opt in.
    pub fn with_store_from_env(mut self) -> Lab {
        self.store = TraceStore::from_env();
        self.report_store = ReportStore::from_env();
        self
    }

    /// The attached trace store, if any.
    pub fn store(&self) -> Option<&TraceStore> {
        self.store.as_ref()
    }

    /// The attached report store, if any.
    pub fn report_store(&self) -> Option<&ReportStore> {
        self.report_store.as_ref()
    }

    /// The experiment parameters the lab was built with.
    pub fn exp(&self) -> &ExpConfig {
        &self.exp
    }

    /// Number of workloads.
    pub fn len(&self) -> usize {
        self.workloads.len()
    }

    /// Whether the lab holds no workloads.
    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
    }

    /// Spec of workload `i`.
    pub fn spec(&self, i: usize) -> &WorkloadSpec {
        &self.workloads[i].spec
    }

    /// Built workload `i`.
    pub fn workload(&self, i: usize) -> &Workload {
        &self.workloads[i]
    }

    /// The [`CellPrograms`] of every row whose `need` flag is set (`None`
    /// elsewhere). Rows assemble from the lab's own built workloads, so a
    /// row the lab holds walks the lab's image; each shape the lab does
    /// not hold ([`distinct_shapes`]) is built once, at the lab's seed,
    /// fanned across `threads` workers. Slots and rows whose specs differ
    /// only in slot, duty cycle or context-switch period share one image;
    /// different shapes never do.
    pub fn cell_programs(
        &self,
        rows: &[CellWorkload],
        need: &[bool],
        threads: usize,
    ) -> Vec<Option<CellPrograms>> {
        let held: Vec<CellWorkload> = self
            .workloads
            .iter()
            .map(|w| CellWorkload::from(w.spec.clone()))
            .collect();
        let needed = rows
            .iter()
            .zip(need)
            .filter(|&(_, &n)| n)
            .map(|(row, _)| row);
        let shapes = distinct_shapes(held.iter().chain(needed));
        let new_shapes = &shapes[distinct_shapes(&held).len()..];
        let built = par::map(new_shapes, threads, |_, spec| {
            Workload::build(spec, self.exp.seed)
        });
        let images: Vec<Workload> = self.workloads.iter().cloned().chain(built).collect();
        rows.iter()
            .zip(need)
            .map(|(row, &n)| n.then(|| CellPrograms::assemble(row, self.exp.seed, &images)))
            .collect()
    }

    /// Per-core L1-I miss traces of workload `i` ([`ANALYSIS_CORES`]
    /// cores, `exp.instructions` per core, paper Section 4.1 miss
    /// definition), computed on first use and cached for every later
    /// analysis. With a store attached ([`with_store`](Self::with_store)),
    /// traces persist across processes: a warm run streams them back from
    /// disk instead of re-running the functional model.
    pub fn miss_traces(&self, i: usize) -> &[Vec<BlockAddr>] {
        &self.traces[i].get_or_init(|| self.walk_cores(i)).misses
    }

    /// Core 0's Figure 10 lookahead marks of workload `i`, if this lab
    /// has walked its cores: present once [`miss_traces`](Self::miss_traces)
    /// ran the functional model, absent before that and when the traces
    /// came from the store. Never starts a pass.
    pub fn lookahead_marks(&self, i: usize) -> Option<&[u64]> {
        self.traces[i].get()?.lookahead_marks.as_deref()
    }

    fn walk_cores(&self, i: usize) -> AnalysisTraces {
        let key = TraceKey::for_section(
            &functional_section("miss_trace"),
            self.spec(i),
            self.exp.seed,
            self.exp.instructions,
            ANALYSIS_CORES,
        );
        if let Some(misses) = self
            .store
            .as_ref()
            .and_then(|store| store.load_blocks(&key))
        {
            return AnalysisTraces {
                misses,
                lookahead_marks: None,
            };
        }
        let mut misses = Vec::with_capacity(ANALYSIS_CORES);
        let mut lookahead_marks = None;
        for core in 0..ANALYSIS_CORES {
            let walk = walk_core(&self.workloads[i], core, self.exp.instructions);
            misses.push(walk.misses);
            if core == 0 {
                lookahead_marks = Some(walk.marks);
            }
        }
        if let Some(store) = &self.store {
            if let Err(e) = store.save_blocks(&key, &misses) {
                eprintln!(
                    "[trace-store] failed to persist {} miss traces: {e}",
                    self.spec(i).name
                );
            }
        }
        AnalysisTraces {
            misses,
            lookahead_marks,
        }
    }

    /// Applies a per-workload analysis in parallel, preserving workload
    /// order. The closure gets a [`WorkloadCtx`] exposing the built
    /// workload and the cached miss traces.
    pub fn analyze<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(WorkloadCtx<'_>) -> R + Sync,
    {
        par::map(&self.workloads, par::parallelism(), |i, _| {
            f(WorkloadCtx {
                lab: self,
                index: i,
            })
        })
    }
}

/// One workload's view of a [`Lab`] during [`Lab::analyze`].
pub struct WorkloadCtx<'a> {
    lab: &'a Lab,
    /// Workload index in lab order.
    pub index: usize,
}

impl WorkloadCtx<'_> {
    /// Workload display name.
    pub fn name(&self) -> String {
        self.lab.spec(self.index).name.to_string()
    }

    /// The generating spec.
    pub fn spec(&self) -> &WorkloadSpec {
        self.lab.spec(self.index)
    }

    /// The built workload.
    pub fn workload(&self) -> &Workload {
        self.lab.workload(self.index)
    }

    /// Experiment parameters.
    pub fn exp(&self) -> &ExpConfig {
        self.lab.exp()
    }

    /// Cached per-core miss traces.
    pub fn miss_traces(&self) -> &[Vec<BlockAddr>] {
        self.lab.miss_traces(self.index)
    }

    /// Cached miss traces as SEQUITUR symbols.
    pub fn symbol_traces(&self) -> Vec<Vec<u64>> {
        self.miss_traces().iter().map(|t| to_symbols(t)).collect()
    }

    /// Core 0's lookahead marks, if the lab walked this workload's cores
    /// ([`Lab::lookahead_marks`]).
    pub fn lookahead_marks(&self) -> Option<&[u64]> {
        self.lab.lookahead_marks(self.index)
    }

    /// The lab's persistent trace store, if one is attached — analyses
    /// with their own derived passes (e.g. Figure 10's lookahead scan)
    /// persist those under their own [`TraceKey::for_section`] keys.
    pub fn store(&self) -> Option<&TraceStore> {
        self.lab.store()
    }

    /// Store key for a derived section of this workload at the lab's
    /// experiment parameters.
    pub fn section_key(&self, section: &str, cores: usize) -> TraceKey {
        TraceKey::for_section(
            section,
            self.spec(),
            self.exp().seed,
            self.exp().instructions,
            cores,
        )
    }
}

/// A declarative (row × system) grid: each row a [`CellWorkload`], each
/// column a [`SystemSpec`]; run every cell, get keyed reports back.
#[derive(Clone, Debug)]
pub struct ExperimentGrid {
    exp: ExpConfig,
    sys: SystemConfig,
    workloads: Vec<CellWorkload>,
    systems: Vec<SystemSpec>,
    threads: Option<usize>,
}

impl ExperimentGrid {
    /// A grid on the paper's Table II CMP with no cells yet.
    pub fn new(exp: ExpConfig) -> ExperimentGrid {
        ExperimentGrid {
            exp,
            sys: SystemConfig::table2(),
            workloads: Vec::new(),
            systems: Vec::new(),
            threads: None,
        }
    }

    /// Replaces the CMP configuration (default: Table II).
    pub fn with_system_config(mut self, sys: SystemConfig) -> Self {
        self.sys = sys;
        self
    }

    /// Adds rows; accepts [`WorkloadSpec`] (a homogeneous row) and
    /// [`CellWorkload`].
    pub fn workloads<W: Into<CellWorkload>>(mut self, rows: impl IntoIterator<Item = W>) -> Self {
        self.workloads.extend(rows.into_iter().map(Into::into));
        self
    }

    /// Adds systems (columns); accepts [`SystemKind`] and [`SystemSpec`].
    pub fn systems<S: Into<SystemSpec>>(mut self, systems: impl IntoIterator<Item = S>) -> Self {
        self.systems.extend(systems.into_iter().map(Into::into));
        self
    }

    /// Forces serial execution (cells still run through the same path).
    pub fn serial(self) -> Self {
        self.threads(1)
    }

    /// Sets an explicit worker count (default: machine parallelism, or
    /// `TIFS_THREADS`).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    fn worker_count(&self) -> usize {
        self.threads.unwrap_or_else(par::parallelism)
    }

    /// Runs the declared rows on an empty lab: [`run_on`](Self::run_on)
    /// builds each program shape once, in parallel (or serially, per
    /// [`serial`](Self::serial) / [`threads`](Self::threads)).
    pub fn run(&self) -> GridResults {
        self.run_on(&Lab::build(Vec::new(), self.exp))
    }

    /// Runs every (row × system) cell on `lab`: the one cell pipeline.
    /// The rows are those added via [`workloads`](Self::workloads), or the
    /// lab's own workloads when the grid declares none (`tifs all` shares
    /// one lab across every figure).
    ///
    /// Every cell is keyed by [`report_key_cell`]. With a [`ReportStore`]
    /// attached to the lab, cached cells are loaded first; programs are
    /// then assembled ([`Lab::cell_programs`]) only for rows with a
    /// missing cell, the missing cells run across threads in (row,
    /// system) order, and each is written through. The store is a pure
    /// cache: attached and detached runs produce identical results.
    pub fn run_on(&self, lab: &Lab) -> GridResults {
        let threads = self.worker_count();
        let rows: Vec<CellWorkload> = if self.workloads.is_empty() {
            (0..lab.len()).map(|i| lab.spec(i).clone().into()).collect()
        } else {
            self.workloads.clone()
        };
        let cells: Vec<(usize, usize)> = (0..rows.len())
            .flat_map(|r| (0..self.systems.len()).map(move |s| (r, s)))
            .collect();
        let keys: Vec<ReportKey> = cells
            .iter()
            .map(|&(r, s)| {
                report_key_cell(
                    &rows[r],
                    lab.exp().seed,
                    &self.systems[s],
                    &self.exp,
                    &self.sys,
                    ExecMode::Coupled,
                )
            })
            .collect();
        let store = lab.report_store();
        let mut reports: Vec<Option<SimReport>> = keys
            .iter()
            .map(|key| store.and_then(|store| load_cached_report(store, key)))
            .collect();
        let missing: Vec<usize> = (0..cells.len()).filter(|&i| reports[i].is_none()).collect();
        let mut need = vec![false; rows.len()];
        for &i in &missing {
            need[cells[i].0] = true;
        }
        let programs = lab.cell_programs(&rows, &need, threads);
        let computed = par::map(&missing, threads, |_, &i| {
            let (r, s) = cells[i];
            let programs = programs[r]
                .as_ref()
                .expect("programs for a row with a missing cell");
            run_cell(programs, &self.systems[s], &self.exp, &self.sys)
        });
        for (&i, report) in missing.iter().zip(computed) {
            if let Some(store) = store {
                if let Err(e) = store.save(&keys[i], &report.to_canonical_bytes()) {
                    let (r, s) = cells[i];
                    eprintln!(
                        "[report-store] failed to persist cell ({}, {}): {e}",
                        rows[r].name(),
                        self.systems[s].name()
                    );
                }
            }
            reports[i] = Some(report);
        }
        let mut reports = reports.into_iter().map(|r| r.expect("every cell resolved"));
        let rows = rows
            .iter()
            .map(|row| GridRow {
                workload: row.name(),
                reports: reports.by_ref().take(self.systems.len()).collect(),
            })
            .collect();
        GridResults {
            systems: self.systems.clone(),
            rows,
        }
    }
}

/// One row's reports, in grid system order.
#[derive(Clone, Debug)]
pub struct GridRow {
    /// Row display name ([`CellWorkload::name`]).
    pub workload: String,
    /// One report per system, in [`GridResults::systems`] order.
    pub reports: Vec<SimReport>,
}

/// All cell reports of a grid run, keyed by (workload row, system).
#[derive(Clone, Debug)]
pub struct GridResults {
    /// The systems measured (column key).
    pub systems: Vec<SystemSpec>,
    /// Per-workload rows, in grid workload order.
    pub rows: Vec<GridRow>,
}

impl GridResults {
    /// Number of workload rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the grid had no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Keyed view of one workload's reports.
    pub fn row(&self, w: usize) -> RowView<'_> {
        RowView {
            systems: &self.systems,
            row: &self.rows[w],
        }
    }

    /// Iterates keyed row views in workload order.
    pub fn iter_rows(&self) -> impl Iterator<Item = RowView<'_>> {
        (0..self.rows.len()).map(|w| self.row(w))
    }
}

/// One workload's reports with system-keyed accessors.
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    systems: &'a [SystemSpec],
    row: &'a GridRow,
}

impl<'a> RowView<'a> {
    /// Workload display name.
    pub fn workload(&self) -> &'a str {
        &self.row.workload
    }

    /// Report of `system`, if it was in the grid.
    pub fn report(&self, system: impl Into<SystemSpec>) -> Option<&'a SimReport> {
        let spec = system.into();
        self.systems
            .iter()
            .position(|s| *s == spec)
            .map(|i| &self.row.reports[i])
    }

    /// Aggregate IPC of `system`.
    ///
    /// # Panics
    ///
    /// Panics if `system` was not in the grid.
    pub fn ipc(&self, system: impl Into<SystemSpec>) -> f64 {
        let spec = system.into();
        self.report(spec.clone())
            .unwrap_or_else(|| panic!("system {:?} not in grid", spec.name()))
            .aggregate_ipc()
    }

    /// Speedup of `system` over `base` (ratio of aggregate IPC).
    pub fn speedup_over(&self, system: impl Into<SystemSpec>, base: impl Into<SystemSpec>) -> f64 {
        let b = self.ipc(base);
        if b == 0.0 {
            0.0
        } else {
            self.ipc(system) / b
        }
    }

    /// (system, report) pairs in grid order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a SystemSpec, &'a SimReport)> {
        self.systems.iter().zip(self.row.reports.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_exp() -> ExpConfig {
        ExpConfig {
            instructions: 4_000,
            warmup: 4_000,
            seed: 3,
        }
    }

    #[test]
    fn run_cell_produces_report() {
        let programs = CellPrograms::build(&WorkloadSpec::tiny_test().into(), 3);
        let sys = SystemConfig::single_core();
        let r = run_cell(&programs, &SystemKind::NextLine.into(), &tiny_exp(), &sys);
        assert_eq!(r.total_retired(), tiny_exp().instructions);
        assert!(r.aggregate_ipc() > 0.0);
    }

    #[test]
    fn par_map_matches_serial_and_preserves_order() {
        let items: Vec<u64> = (0..97).collect();
        let serial = par::map(&items, 1, |i, &x| x * 3 + i as u64);
        let parallel = par::map(&items, 8, |i, &x| x * 3 + i as u64);
        assert_eq!(serial, parallel);
        assert_eq!(serial[5], 5 * 3 + 5);
    }

    #[test]
    fn par_map_handles_empty_and_oversubscription() {
        let empty: Vec<u32> = Vec::new();
        assert!(par::map(&empty, 8, |_, &x| x).is_empty());
        let one = [7u32];
        assert_eq!(par::map(&one, 64, |_, &x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn par_map_propagates_a_worker_panic_with_its_message() {
        let items: Vec<u32> = (0..8).collect();
        par::map(&items, 2, |i, &x| {
            if i == 5 {
                panic!("item {i} failed");
            }
            x
        });
    }

    #[test]
    fn grid_builds_workloads_once_and_keys_reports() {
        let grid = ExperimentGrid::new(tiny_exp())
            .with_system_config(SystemConfig::single_core())
            .workloads([WorkloadSpec::tiny_test()])
            .systems([SystemKind::NextLine, SystemKind::TifsVirtualized]);
        let results = grid.run();
        assert_eq!(results.len(), 1);
        let row = results.row(0);
        assert!(row.report(SystemKind::NextLine).is_some());
        assert!(row.report(SystemKind::Fdip).is_none());
        assert!(row.ipc(SystemKind::NextLine) > 0.0);
        assert!(row.speedup_over(SystemKind::TifsVirtualized, SystemKind::NextLine) > 0.0);
    }

    #[test]
    fn grid_supports_custom_tifs_cells() {
        let custom = SystemSpec::tifs(
            "no EOS",
            TifsConfig {
                end_of_stream: false,
                ..TifsConfig::virtualized()
            },
        );
        let results = ExperimentGrid::new(tiny_exp())
            .with_system_config(SystemConfig::single_core())
            .workloads([WorkloadSpec::tiny_test()])
            .systems([custom.clone()])
            .run();
        assert_eq!(results.systems[0].name(), "no EOS");
        assert!(results.row(0).report(custom).is_some());
    }

    #[test]
    fn lab_caches_miss_traces() {
        let lab = Lab::build(vec![WorkloadSpec::tiny_test()], tiny_exp());
        let a = lab.miss_traces(0).as_ptr();
        let b = lab.miss_traces(0).as_ptr();
        assert_eq!(a, b, "second call must hit the cache");
        assert_eq!(lab.miss_traces(0).len(), ANALYSIS_CORES);
    }

    #[test]
    fn lab_keeps_core_0_marks_from_its_own_pass() {
        let lab = Lab::build(vec![WorkloadSpec::tiny_test()], tiny_exp());
        assert_eq!(lab.lookahead_marks(0), None, "asking must not start a pass");
        lab.miss_traces(0);
        let walk = walk_core(lab.workload(0), 0, tiny_exp().instructions);
        assert_eq!(lab.miss_traces(0)[0], walk.misses);
        assert_eq!(lab.lookahead_marks(0), Some(&walk.marks[..]));
    }

    #[test]
    fn lab_store_warm_start_matches_cold_build() {
        let dir = std::env::temp_dir().join(format!("tifs-engine-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mk = || {
            Lab::build(vec![WorkloadSpec::tiny_test()], tiny_exp())
                .with_store(TraceStore::new(&dir).expect("store dir"))
        };
        let cold = mk();
        let cold_traces = cold.miss_traces(0).to_vec();
        let s = cold.store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (0, 1, 1));
        let warm = mk();
        let warm_traces = warm.miss_traces(0).to_vec();
        let s = warm.store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (1, 0, 0));
        assert_eq!(cold_traces, warm_traces);
        // The store is a pure cache: a storeless lab agrees exactly.
        let plain = Lab::build(vec![WorkloadSpec::tiny_test()], tiny_exp());
        assert_eq!(plain.miss_traces(0), &warm_traces[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_preserves_workload_order() {
        let lab = Lab::build(
            vec![WorkloadSpec::tiny_test(), WorkloadSpec::tiny_test()],
            tiny_exp(),
        );
        let names = lab.analyze(|ctx| format!("{}#{}", ctx.name(), ctx.index));
        assert_eq!(names.len(), 2);
        assert!(names[0].ends_with("#0"));
        assert!(names[1].ends_with("#1"));
    }

    #[test]
    fn report_key_covers_every_input() {
        let spec = WorkloadSpec::tiny_test();
        let exp = tiny_exp();
        let sys = SystemConfig::single_core();
        let system = SystemSpec::Kind(SystemKind::TifsVirtualized);
        let base = report_key(&spec, exp.seed, &system, &exp, &sys, ExecMode::Coupled);
        assert_eq!(
            base,
            report_key(&spec, exp.seed, &system, &exp, &sys, ExecMode::Coupled)
        );
        // The workload-generation seed is distinct content from the
        // grid's seed: a lab built under a different seed than the grid
        // runs with must never share a cache entry.
        assert_ne!(
            base,
            report_key(&spec, exp.seed + 1, &system, &exp, &sys, ExecMode::Coupled)
        );
        // Seed, budgets, warmup.
        let mut e2 = exp;
        e2.seed += 1;
        assert_ne!(
            base,
            report_key(&spec, exp.seed, &system, &e2, &sys, ExecMode::Coupled)
        );
        let mut e3 = exp;
        e3.warmup += 1;
        assert_ne!(
            base,
            report_key(&spec, exp.seed, &system, &e3, &sys, ExecMode::Coupled)
        );
        // CMP config.
        let mut s2 = sys.clone();
        s2.mem_latency += 1;
        assert_ne!(
            base,
            report_key(&spec, exp.seed, &system, &exp, &s2, ExecMode::Coupled)
        );
        // System under test (named kinds, probabilistic payload, ablations).
        assert_ne!(
            base,
            report_key(
                &spec,
                exp.seed,
                &SystemSpec::Kind(SystemKind::NextLine),
                &exp,
                &sys,
                ExecMode::Coupled
            )
        );
        assert_ne!(
            report_key(
                &spec,
                exp.seed,
                &SystemSpec::Kind(SystemKind::Probabilistic(0.25)),
                &exp,
                &sys,
                ExecMode::Coupled
            ),
            report_key(
                &spec,
                exp.seed,
                &SystemSpec::Kind(SystemKind::Probabilistic(0.5)),
                &exp,
                &sys,
                ExecMode::Coupled
            )
        );
        let ablated = SystemSpec::tifs(
            "no EOS",
            TifsConfig {
                end_of_stream: false,
                ..TifsConfig::virtualized()
            },
        );
        assert_ne!(
            base,
            report_key(&spec, exp.seed, &ablated, &exp, &sys, ExecMode::Coupled)
        );
        // The metadata organization is content: every shared variant
        // addresses its own entries (private hashes as the pre-axis key,
        // pinned byte-exactly in the report_key_stability suite).
        let key_of_org = |org: MetadataOrg| {
            let spec_sys = SystemSpec::tifs(
                "org",
                TifsConfig {
                    metadata: org,
                    ..TifsConfig::virtualized()
                },
            );
            report_key(&spec, exp.seed, &spec_sys, &exp, &sys, ExecMode::Coupled)
        };
        let org_keys = [
            key_of_org(MetadataOrg::PrivatePerCore),
            key_of_org(MetadataOrg::shared_quota(0)),
            key_of_org(MetadataOrg::shared_quota(2)),
            key_of_org(MetadataOrg::shared_pool(2)),
        ];
        for (i, a) in org_keys.iter().enumerate() {
            for b in &org_keys[i + 1..] {
                assert_ne!(a, b, "metadata organizations must not collide");
            }
        }
        // Labels are display metadata, not content.
        let relabelled = SystemSpec::tifs("other label", TifsConfig::virtualized());
        let labelled = SystemSpec::tifs("a label", TifsConfig::virtualized());
        assert_eq!(
            report_key(&spec, exp.seed, &labelled, &exp, &sys, ExecMode::Coupled),
            report_key(&spec, exp.seed, &relabelled, &exp, &sys, ExecMode::Coupled)
        );
    }

    #[test]
    fn key_tags_keep_their_history_and_never_reuse_retired_ones() {
        // Retired tags, whose store entries may still exist on disk:
        // kind 8 (`SystemKind::TifsGrammar`), spec 2 (`SystemSpec::Grammar`),
        // and modes 1 and 2 (the per-core sharded and contention-convolved
        // modes). A new variant must be listed here with its own tag.
        let retired_kinds = [8];
        let retired_specs = [2];
        let retired_modes = [1, 2];
        let kinds = [
            (SystemKind::NextLine, 0),
            (SystemKind::Fdip, 1),
            (SystemKind::Discontinuity, 2),
            (SystemKind::TifsUnbounded, 3),
            (SystemKind::TifsDedicated, 4),
            (SystemKind::TifsVirtualized, 5),
            (SystemKind::Probabilistic(0.5), 6),
            (SystemKind::Perfect, 7),
        ];
        for (kind, tag) in kinds {
            assert_eq!(kind_tag(kind), tag, "{kind:?} left its historical tag");
            assert!(!retired_kinds.contains(&kind_tag(kind)), "{kind:?}");
        }
        let specs = [
            (SystemSpec::Kind(SystemKind::Perfect), 0),
            (SystemSpec::tifs("ablation", TifsConfig::virtualized()), 1),
        ];
        for (spec, tag) in &specs {
            assert_eq!(
                spec_tag(spec),
                *tag,
                "{} left its historical tag",
                spec.name()
            );
            assert!(!retired_specs.contains(&spec_tag(spec)), "{}", spec.name());
        }
        assert_eq!(mode_tag(ExecMode::Coupled), 0);
        assert!(!retired_modes.contains(&mode_tag(ExecMode::Coupled)));
    }

    #[test]
    fn retired_event_section_in_the_store_is_evicted_and_recomputed() {
        // A payload carrying the retired L2 event section (tag 2), in a
        // valid store frame under a real coupled cell's key, must never
        // be served: the grid evicts it and recomputes the cell.
        let dir = std::env::temp_dir().join(format!(
            "tifs-engine-retired-section-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let exp = tiny_exp();
        let sys = SystemConfig::single_core();
        let spec = WorkloadSpec::tiny_test();
        let system = SystemSpec::Kind(SystemKind::TifsVirtualized);
        let grid = ExperimentGrid::new(exp)
            .with_system_config(sys.clone())
            .systems([system.clone()]);
        let bytes_of = |results: &GridResults| {
            results
                .row(0)
                .report(system.clone())
                .unwrap()
                .to_canonical_bytes()
        };
        let expected = bytes_of(&grid.run_on(&Lab::build(vec![spec.clone()], exp)));
        let mut stale = expected.clone();
        // Section tag, one event (issue, block, kind | hit << 8), no warm blocks.
        for word in [2u64, 1, 3, 17, 0, 0] {
            stale.extend_from_slice(&word.to_le_bytes());
        }
        let key = report_key(&spec, exp.seed, &system, &exp, &sys, ExecMode::Coupled);
        ReportStore::new(&dir)
            .expect("store dir")
            .save(&key, &stale)
            .expect("plant the stale entry");
        let lab = Lab::build(vec![spec], exp)
            .with_report_store(ReportStore::new(&dir).expect("store dir"));
        assert_eq!(bytes_of(&grid.run_on(&lab)), expected);
        let store = lab.report_store().unwrap();
        let s = store.stats();
        assert_eq!((s.evictions, s.writes), (1, 1), "evicted, then rewritten");
        assert_eq!(store.load(&key), Some(expected));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Canonical report bytes of every cell, row by row.
    fn bytes(results: &GridResults) -> Vec<Vec<Vec<u8>>> {
        results
            .rows
            .iter()
            .map(|row| {
                row.reports
                    .iter()
                    .map(SimReport::to_canonical_bytes)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn grid_report_store_warm_start_is_all_hits() {
        // One grid over a homogeneous row, a mix row, and a degenerate mix
        // of the homogeneous row's spec, which keys and runs as that row.
        let dir =
            std::env::temp_dir().join(format!("tifs-engine-report-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = WorkloadSpec::tiny_test();
        let grid = ExperimentGrid::new(tiny_exp())
            .with_system_config(SystemConfig {
                num_cores: 2,
                ..SystemConfig::table2()
            })
            .workloads([
                CellWorkload::Homogeneous(spec.clone()),
                CellWorkload::Mix(vec![spec.clone(), spec.clone().with_duty_cycle(0.5)]),
                CellWorkload::Mix(vec![spec.clone(), spec.clone()]),
            ])
            .systems([SystemKind::NextLine, SystemKind::TifsVirtualized]);
        let mk = || {
            Lab::build(vec![spec.clone()], tiny_exp())
                .with_report_store(ReportStore::new(&dir).expect("store dir"))
        };
        let cold_lab = mk();
        let cold = bytes(&grid.run_on(&cold_lab));
        let s = cold_lab.report_store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (0, 6, 6));
        let warm_lab = mk();
        let warm = bytes(&grid.run_on(&warm_lab));
        let s = warm_lab.report_store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (6, 0, 0));
        assert_eq!(cold, warm);
        // The store is a pure cache: a storeless lab agrees exactly.
        let plain = bytes(&grid.run_on(&Lab::build(vec![spec.clone()], tiny_exp())));
        assert_eq!(plain, warm);
        assert_eq!(
            warm[2], warm[0],
            "a degenerate mix runs as its homogeneous row"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mix_cells_report_store_warm_start_is_all_hits() {
        // The fleet_mix path: a lab that holds no workloads builds every
        // shape its rows name, and the store serves the cells warm.
        let dir =
            std::env::temp_dir().join(format!("tifs-engine-mix-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = ExperimentGrid::new(tiny_exp())
            .with_system_config(SystemConfig {
                num_cores: 2,
                ..SystemConfig::table2()
            })
            .workloads([
                CellWorkload::Homogeneous(WorkloadSpec::tiny_test()),
                CellWorkload::Mix(vec![
                    WorkloadSpec::tiny_test(),
                    WorkloadSpec::tiny_test().with_duty_cycle(0.5),
                ]),
            ])
            .systems([SystemKind::NextLine, SystemKind::TifsVirtualized]);
        let mk = || {
            Lab::build(Vec::new(), tiny_exp())
                .with_report_store(ReportStore::new(&dir).expect("store dir"))
        };
        let cold_lab = mk();
        let cold = bytes(&grid.run_on(&cold_lab));
        let s = cold_lab.report_store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (0, 4, 4));
        let warm_lab = mk();
        let warm = bytes(&grid.run_on(&warm_lab));
        let s = warm_lab.report_store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (4, 0, 0));
        assert_eq!(cold, warm);
        // The store is a pure cache: a storeless lab agrees exactly.
        let plain = bytes(&grid.run_on(&Lab::build(Vec::new(), tiny_exp())));
        assert_eq!(plain, warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rows_the_lab_holds_walk_its_images() {
        let lab = Lab::build(vec![WorkloadSpec::tiny_test()], tiny_exp());
        let rows = [
            WorkloadSpec::tiny_test().into(),
            CellWorkload::Mix(vec![
                WorkloadSpec::tiny_test().with_duty_cycle(0.5),
                WorkloadSpec::tiny_server(),
            ]),
        ];
        let programs = lab.cell_programs(&rows, &[true, true], 2);
        let image = &lab.workload(0).program;
        let held = programs[0].as_ref().unwrap();
        assert!(held.workload_for_core(0).program.shares_image(image));
        let mix = programs[1].as_ref().unwrap();
        assert!(mix.workload_for_core(0).program.shares_image(image));
        assert!(!mix.workload_for_core(1).program.shares_image(image));
        assert!(lab.cell_programs(&rows, &[false, true], 2)[0].is_none());
    }

    #[test]
    fn declared_rows_run_on_a_lab_holding_other_workloads() {
        let grid = ExperimentGrid::new(tiny_exp())
            .with_system_config(SystemConfig::single_core())
            .workloads([WorkloadSpec::tiny_server()])
            .systems([SystemKind::NextLine]);
        let on_lab = grid.run_on(&Lab::build(vec![WorkloadSpec::tiny_test()], tiny_exp()));
        assert_eq!(on_lab.len(), 1);
        assert_eq!(on_lab.row(0).workload(), WorkloadSpec::tiny_server().name);
        assert_eq!(format!("{on_lab:?}"), format!("{:?}", grid.run()));
    }

    #[test]
    fn serial_and_parallel_grids_agree_exactly() {
        let grid = ExperimentGrid::new(tiny_exp())
            .with_system_config(SystemConfig::single_core())
            .workloads([WorkloadSpec::tiny_test()])
            .systems([SystemKind::NextLine, SystemKind::TifsVirtualized]);
        let serial = grid.clone().serial().run();
        let parallel = grid.threads(8).run();
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn mix_keys_are_per_core_spec_and_order_sensitive() {
        // The collision class this keying fixes: a cell key that ignored
        // the per-core assignment (hashing one representative spec, or an
        // unordered spec set) maps the distinct fleets below to one
        // address. Every pair here must stay disjoint.
        let a = WorkloadSpec::tiny_test();
        let b = WorkloadSpec::tiny_test().with_duty_cycle(0.5);
        let exp = tiny_exp();
        let sys = SystemConfig::single_core();
        let system = SystemSpec::Kind(SystemKind::TifsVirtualized);
        let key = |cell: &CellWorkload| {
            report_key_cell(cell, exp.seed, &system, &exp, &sys, ExecMode::Coupled)
        };
        let homog_a = key(&CellWorkload::Homogeneous(a.clone()));
        let homog_b = key(&CellWorkload::Homogeneous(b.clone()));
        let mix_ab = key(&CellWorkload::Mix(vec![a.clone(), b.clone()]));
        let mix_ba = key(&CellWorkload::Mix(vec![b.clone(), a.clone()]));
        let mix_aab = key(&CellWorkload::Mix(vec![a.clone(), a.clone(), b.clone()]));
        let distinct = [homog_a, homog_b, mix_ab, mix_ba, mix_aab];
        for (i, x) in distinct.iter().enumerate() {
            for y in &distinct[i + 1..] {
                assert_ne!(x, y, "distinct fleets must address distinct content");
            }
        }
        // Append-only: a degenerate mix canonicalizes to the homogeneous
        // cell and hashes to exactly the pre-mix key, so every store
        // entry minted before the axis existed stays warm.
        assert_eq!(key(&CellWorkload::Mix(vec![a.clone(), a.clone()])), homog_a);
        assert_eq!(
            homog_a,
            report_key(&a, exp.seed, &system, &exp, &sys, ExecMode::Coupled)
        );
    }

    #[test]
    fn degenerate_mix_cell_runs_byte_identical_to_homogeneous() {
        let spec = WorkloadSpec::tiny_test();
        let exp = tiny_exp();
        let mut sys = SystemConfig::table2();
        sys.num_cores = 2;
        let system = SystemSpec::Kind(SystemKind::TifsVirtualized);
        let programs = CellPrograms::build(
            &CellWorkload::Mix(vec![spec.clone(), spec.clone()]),
            exp.seed,
        );
        let mix = run_cell(&programs, &system, &exp, &sys);
        // The homogeneous reference, built here rather than through
        // `run_cell`: every core walks the one workload.
        let workload = Workload::build(&spec, exp.seed);
        let streams = (0..sys.num_cores)
            .map(|c| Box::new(workload.walker(c)) as Box<dyn Iterator<Item = FetchRecord>>)
            .collect();
        let pf = build_prefetcher(&system, &workload, &sys, exp.seed);
        let legacy =
            Cmp::new(sys.clone(), streams, pf).run_with_warmup(exp.warmup, exp.instructions);
        assert_eq!(
            mix.to_canonical_bytes(),
            legacy.to_canonical_bytes(),
            "a degenerate mix must reproduce the homogeneous cell byte for byte"
        );
    }
}
