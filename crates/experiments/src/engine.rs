//! The shared experiment engine.
//!
//! Every figure, table, and binary of the evaluation is a grid of
//! *cells* — (workload × system) simulations under one [`ExpConfig`] and
//! one [`SystemConfig`] — or an *analysis* over per-workload miss traces.
//! This module is the single place that
//!
//! * builds each [`Workload`] **once** and shares it across every system
//!   measured on it (a build costs as much as a short timing run);
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
//!   [`SimReport`] is keyed by a [`report_key`] fingerprint of the *full*
//!   cell configuration and persisted through the canonical report codec,
//!   so a repeat grid run recomputes nothing;
//! * optionally shards a cell's cores across threads
//!   ([`ExperimentGrid::sharded`], `TIFS_SHARD_CORES`): each core runs an
//!   independent single-core simulation ([`run_core_shard`]) and the
//!   per-core reports merge deterministically
//!   ([`SimReport::merge_shards`]) into one cell report, byte-identical
//!   at every shard/thread count. Sharded cells model private L2 slices
//!   (no cross-core contention), so sharding is a distinct execution mode
//!   with its own report-store address space, never a silent substitute
//!   for the coupled CMP;
//! * optionally reconstructs the shared L2 post hoc
//!   ([`ExperimentGrid::sharded_contended`], `TIFS_SHARD_CONTENTION`):
//!   each shard records its L2 access timeline and warm set, and
//!   [`convolve_shards`] replays the merged timelines through the shared
//!   bank-occupancy / `mem_gap` channel model and a shared instruction
//!   directory — charging cross-core queueing and crediting cross-core
//!   block sharing — so per-cell IPC tracks the coupled CMP at
//!   shard-level speed (bounded by the `contention_fidelity` test).
//!
//! Cells are deterministic: a grid produces bit-identical [`SimReport`]s
//! whether run serially or in parallel, cold or warm, sharded at any
//! worker count, because every cell derives its state only from
//! (spec, seed, system, mode) — verified by the `engine_determinism`
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
    CapacityPartition, GrammarHistoryConfig, ImlStorage, IndexKind, MetadataOrg, TifsConfig,
    TifsGrammarConfig, TifsGrammarPrefetcher, TifsPrefetcher,
};
use tifs_prefetch::{
    DiscontinuityConfig, DiscontinuityPrefetcher, Fdip, FdipConfig, ProbabilisticPrefetcher,
};
use tifs_sim::cache::SetAssocCache;
use tifs_sim::cmp::Cmp;
use tifs_sim::config::SystemConfig;
use tifs_sim::l2::{ChannelModel, L2ReqKind};
use tifs_sim::prefetch::{IPrefetcher, NullPrefetcher};
use tifs_sim::stats::{SimReport, SIM_REPORT_EVENT_LAYOUT_VERSION, SIM_REPORT_LAYOUT_VERSION};
use tifs_trace::codec::REPORT_VERSION;
use tifs_trace::store::{
    hash_workload_spec, Fingerprint, ReportKey, ReportStore, TraceKey, TraceStore,
};
use tifs_trace::workload::{distinct_shapes, CellPrograms, CellWorkload, Workload, WorkloadSpec};
use tifs_trace::{BlockAddr, FetchRecord};

use crate::harness::{walk_core, ExpConfig, SystemKind};

/// Environment variable enabling intra-cell core sharding for grids that
/// did not choose explicitly ([`ExperimentGrid::sharded`] wins). Truthy
/// values: `1` / `on` / `true` / `yes`.
pub const SHARD_ENV: &str = "TIFS_SHARD_CORES";

/// Environment variable enabling the *contention-aware* sharded mode for
/// grids that did not choose explicitly. Takes precedence over
/// [`SHARD_ENV`]; same truthy values.
pub const SHARD_CONTENTION_ENV: &str = "TIFS_SHARD_CONTENTION";

fn env_truthy(var: &str) -> bool {
    matches!(
        // tifs-lint: allow(wall-clock) — callers only pass the documented
        // TIFS_* sharding knobs declared just above.
        std::env::var(var).as_deref(),
        Ok("1" | "on" | "true" | "yes")
    )
}

/// Whether [`SHARD_ENV`] enables sharding for this process.
pub fn shard_cores_from_env() -> bool {
    env_truthy(SHARD_ENV)
}

/// Whether [`SHARD_CONTENTION_ENV`] enables contention-aware sharding
/// for this process.
pub fn shard_contention_from_env() -> bool {
    env_truthy(SHARD_CONTENTION_ENV)
}

/// How a grid cell is executed. Each mode is distinct content in the
/// report store: the mode discriminant is part of every [`report_key`],
/// and the discriminants for [`Coupled`](ExecMode::Coupled) and
/// [`Sharded`](ExecMode::Sharded) hash exactly as the pre-contention
/// boolean did, so existing store entries for those modes stay warm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// The paper's coupled CMP: every core shares one L2, one memory
    /// channel, and one prefetcher instance. The figures' default.
    Coupled,
    /// Intra-cell core sharding over private L2 slices: maximum
    /// parallelism, no cross-core contention modelled.
    Sharded,
    /// Sharded execution plus a post-hoc convolution: each shard records
    /// its L2 access timeline, and [`convolve_shards`] replays the merged
    /// timelines through the shared bank-occupancy / `mem_gap` channel
    /// model to reconstruct queueing delay, contended cycles, and IPC.
    ShardedContended,
}

impl ExecMode {
    /// The mode selected by the environment for grids that did not choose
    /// explicitly: [`SHARD_CONTENTION_ENV`] wins over [`SHARD_ENV`].
    pub fn from_env() -> ExecMode {
        if shard_contention_from_env() {
            ExecMode::ShardedContended
        } else if shard_cores_from_env() {
            ExecMode::Sharded
        } else {
            ExecMode::Coupled
        }
    }

    /// Whether cells decompose into per-core shard work units.
    pub fn is_sharded(self) -> bool {
        !matches!(self, ExecMode::Coupled)
    }
}

/// Version of the post-hoc contention reconstruction algorithm
/// ([`convolve_shards`]). Hashed into every
/// [`ShardedContended`](ExecMode::ShardedContended) report key, so a
/// model change re-addresses that mode's cached reports without touching
/// the coupled or plain-sharded address spaces.
pub const CONTENTION_MODEL_VERSION: u32 = 1;

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
    /// Propagates a panic from `f` (the scope joins all workers first).
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
            for _ in 0..workers {
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
                });
            }
            drop(tx);
            for (i, r) in rx {
                slots[i] = Some(r);
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
    /// The grammar arm under an explicit configuration.
    Grammar {
        /// Display label for tables.
        label: String,
        /// The configuration under test.
        config: TifsGrammarConfig,
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

    /// A labelled grammar-arm cell.
    pub fn grammar(label: impl Into<String>, config: TifsGrammarConfig) -> SystemSpec {
        SystemSpec::Grammar {
            label: label.into(),
            config,
        }
    }

    /// Display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            SystemSpec::Kind(k) => k.name(),
            SystemSpec::Tifs { label, .. } | SystemSpec::Grammar { label, .. } => label.clone(),
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
        SystemSpec::Grammar { config, .. } => {
            return Box::new(TifsGrammarPrefetcher::new(sys.num_cores, *config));
        }
        SystemSpec::Kind(kind) => *kind,
    };
    match kind {
        SystemKind::NextLine => Box::new(NullPrefetcher),
        SystemKind::Fdip => Box::new(Fdip::new(
            &workload.program,
            sys.num_cores,
            FdipConfig::default(),
        )),
        SystemKind::Discontinuity => Box::new(DiscontinuityPrefetcher::new(
            sys.num_cores,
            DiscontinuityConfig::default(),
        )),
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
        SystemKind::TifsGrammar => Box::new(TifsGrammarPrefetcher::new(
            sys.num_cores,
            TifsGrammarConfig::default(),
        )),
    }
}

/// Runs one grid cell: `system` over `workload` on the `sys` CMP. The
/// only place in the experiments crate that constructs core fetch
/// streams.
pub fn run_cell(
    workload: &Workload,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
) -> SimReport {
    let streams: Vec<_> = (0..sys.num_cores)
        .map(|c| Box::new(workload.walker(c)) as Box<dyn Iterator<Item = FetchRecord>>)
        .collect();
    let pf = build_prefetcher(system, workload, sys, exp.seed);
    let mut cmp = Cmp::new(sys.clone(), streams, pf);
    cmp.run_with_warmup(exp.warmup, exp.instructions)
}

/// Runs one heterogeneous-mix cell: core `c` walks
/// [`CellPrograms::walker`]`(c)` — its own mix position's program in its
/// own address-space slot — on the shared `sys` CMP. A homogeneous cell
/// (or a degenerate mix, which [`CellPrograms::build`] canonicalizes)
/// deduplicates to the single slot-0 program and reproduces [`run_cell`]
/// byte for byte.
///
/// The prefetcher is built against core 0's workload; that argument only
/// matters to [`SystemKind::Fdip`], which pre-decodes one program image —
/// mix grids measure TIFS/NextLine systems, whose construction ignores
/// it. (An FDIP mix cell would need per-core decoders; gate it here if
/// that study ever materializes.)
pub fn run_cell_mix(
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
/// system/prefetcher configuration, and the execution mode (coupled,
/// core-sharded, or sharded-contended — the latter also hashing
/// [`CONTENTION_MODEL_VERSION`] and the event-section layout version).
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
    // Coupled and Sharded hash exactly as the pre-contention `bool` did
    // (0 / 1), so existing store entries for those modes stay warm.
    match mode {
        ExecMode::Coupled => h.u64(0),
        ExecMode::Sharded => h.u64(1),
        ExecMode::ShardedContended => {
            h.u64(2);
            h.u64(u64::from(CONTENTION_MODEL_VERSION));
            h.u64(u64::from(SIM_REPORT_EVENT_LAYOUT_VERSION));
        }
    }
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

/// Feeds the system under test: a tagged discriminant per named kind, or
/// the full TIFS configuration for ablation cells. Labels are display
/// metadata and deliberately not hashed — two labels over one
/// configuration are the same content.
fn hash_system_spec(h: &mut Fingerprint, system: &SystemSpec) {
    match system {
        SystemSpec::Kind(kind) => {
            h.u64(0);
            match kind {
                SystemKind::NextLine => h.u64(0),
                SystemKind::Fdip => h.u64(1),
                SystemKind::Discontinuity => h.u64(2),
                SystemKind::TifsUnbounded => h.u64(3),
                SystemKind::TifsDedicated => h.u64(4),
                SystemKind::TifsVirtualized => h.u64(5),
                SystemKind::Probabilistic(p) => {
                    h.u64(6);
                    h.f64(*p);
                }
                SystemKind::Perfect => h.u64(7),
                // Append-only: new kinds take the next free discriminant;
                // earlier kinds' keys are untouched.
                SystemKind::TifsGrammar => h.u64(8),
            }
        }
        SystemSpec::Tifs { label: _, config } => {
            h.u64(1);
            hash_tifs_config(h, config);
        }
        // Append-only: a new top-level spec variant takes the next free
        // discriminant, so every Kind/Tifs key minted before it exists is
        // unchanged and all pre-existing store entries stay warm.
        SystemSpec::Grammar { label: _, config } => {
            h.u64(2);
            hash_grammar_config(h, config);
        }
    }
}

/// Feeds every [`TifsGrammarConfig`] field (exhaustive destructuring, as
/// [`hash_tifs_config`]): a new field without a hash line is a compile
/// error, never a stale hit.
fn hash_grammar_config(h: &mut Fingerprint, cfg: &TifsGrammarConfig) {
    let TifsGrammarConfig {
        history:
            GrammarHistoryConfig {
                budget_bytes_per_core,
                rle,
                refresh_interval,
                max_stream,
            },
        svb_blocks,
        stream_contexts,
        rate_target,
        end_of_stream,
    } = cfg;
    h.u64(*budget_bytes_per_core as u64);
    h.bool(*rle);
    h.u64(*refresh_interval);
    h.u64(*max_stream as u64);
    h.u64(*svb_blocks as u64);
    h.u64(*stream_contexts as u64);
    h.u64(*rate_target as u64);
    h.bool(*end_of_stream);
}

/// Feeds every [`TifsConfig`] field (exhaustive destructuring).
///
/// The `metadata` organization hashes *append-only*: the default
/// [`MetadataOrg::PrivatePerCore`] contributes nothing, so every report
/// key minted before the sharing axis existed is unchanged and all
/// pre-existing store entries stay warm (the same trick [`ExecMode`]
/// used for the contention discriminant) — pinned by the
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

/// Runs a batch of heterogeneous-mix cells against a set of systems and
/// returns one report row per cell, in `systems` order — the mix-axis
/// analogue of [`ExperimentGrid::run_on`]. Every cell runs the **coupled
/// CMP**: per-core sharding would simulate each tenant on a private
/// 1-core system, dissolving exactly the cross-tenant interference the
/// mix axis studies, so the mode is fixed rather than read from the
/// environment (as [`fig_sharing`](crate::figures::fig_sharing) does).
///
/// With a [`ReportStore`] attached to `lab`, each cell consults the store
/// under its [`report_key_cell`] first; only rows with missing cells get
/// [`CellPrograms`] ([`build_cell_programs`]: each distinct program image
/// built once and shared by every slot and row that walks it) and
/// simulate (fanned across `threads` workers), then write through. Cached
/// cells skip the program build entirely, so a warm run is all store
/// reads.
pub fn run_mix_cells(
    lab: &Lab,
    sys: &SystemConfig,
    cells: &[CellWorkload],
    systems: &[SystemSpec],
    threads: usize,
) -> Vec<Vec<SimReport>> {
    let exp = *lab.exp();
    let store = lab.report_store();
    let pairs: Vec<(usize, usize)> = (0..cells.len())
        .flat_map(|c| (0..systems.len()).map(move |s| (c, s)))
        .collect();
    let key_of = |c: usize, s: usize| {
        report_key_cell(
            &cells[c],
            exp.seed,
            &systems[s],
            &exp,
            sys,
            ExecMode::Coupled,
        )
    };
    let mut reports: Vec<Option<SimReport>> = match store {
        Some(store) => pairs
            .iter()
            .map(|&(c, s)| load_cached_report(store, &key_of(c, s)))
            .collect(),
        None => pairs.iter().map(|_| None).collect(),
    };
    let missing: Vec<(usize, usize)> = pairs
        .iter()
        .zip(&reports)
        .filter(|(_, cached)| cached.is_none())
        .map(|(&pair, _)| pair)
        .collect();
    let mut need = vec![false; cells.len()];
    for &(c, _) in &missing {
        need[c] = true;
    }
    let programs = build_cell_programs(cells, &need, exp.seed, threads);
    let computed: Vec<SimReport> = par::map(&missing, threads, |_, &(c, s)| {
        let programs = programs[c]
            .as_ref()
            .expect("programs built for missing cell");
        run_cell_mix(programs, &systems[s], &exp, sys)
    });
    let mut computed_iter = computed.into_iter();
    for (slot, &(c, s)) in reports.iter_mut().zip(&pairs) {
        if slot.is_none() {
            let report = computed_iter.next().expect("one report per missing cell");
            if let Some(store) = store {
                if let Err(e) = store.save(&key_of(c, s), &report.to_canonical_bytes()) {
                    eprintln!(
                        "[report-store] failed to persist mix cell ({}, {}): {e}",
                        cells[c].name(),
                        systems[s].name()
                    );
                }
            }
            *slot = Some(report);
        }
    }
    let mut rows: Vec<Vec<SimReport>> = (0..cells.len())
        .map(|_| Vec::with_capacity(systems.len()))
        .collect();
    for ((c, _), report) in pairs.into_iter().zip(reports) {
        rows[c].push(report.expect("every cell resolved"));
    }
    rows
}

/// The [`CellPrograms`] of every cell whose `need` flag is set (`None`
/// elsewhere), with each distinct program image built once: one slot-0
/// build per shape among the needed cells ([`distinct_shapes`]), fanned
/// across `threads` workers, from which every needed cell is assembled.
/// Slots and rows whose specs differ only in slot, duty cycle or
/// context-switch period share one image; different shapes never do.
pub fn build_cell_programs(
    cells: &[CellWorkload],
    need: &[bool],
    seed: u64,
    threads: usize,
) -> Vec<Option<CellPrograms>> {
    let shapes = distinct_shapes(
        cells
            .iter()
            .zip(need)
            .filter(|&(_, &n)| n)
            .map(|(cell, _)| cell),
    );
    let images = par::map(&shapes, threads, |_, spec| Workload::build(spec, seed));
    cells
        .iter()
        .zip(need)
        .map(|(cell, &n)| n.then(|| CellPrograms::assemble(cell, seed, &images)))
        .collect()
}

// ---------------------------------------------------------------------------
// Intra-cell sharding — one core per work unit, deterministic merge.
// ---------------------------------------------------------------------------

/// Prefetcher seed for one core's shard: decorrelates per-shard RNG
/// (the probabilistic baselines) across cores while staying a pure
/// function of (seed, core).
fn shard_seed(seed: u64, core: usize) -> u64 {
    seed ^ (core as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs one core of a cell as an independent single-core simulation: the
/// core's own fetch stream on a 1-core copy of `sys` (same cache
/// geometry and latencies, private L2 slice and prefetcher instance).
/// This is the work unit of intra-cell sharding; it depends only on
/// (spec, seed, system, core), so any schedule of shards reproduces the
/// same per-core report.
pub fn run_core_shard(
    workload: &Workload,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
    core: usize,
) -> SimReport {
    run_core_shard_inner(workload, system, exp, sys, core, false)
}

/// As [`run_core_shard`], additionally recording the shard's L2 access
/// timeline into the report's `l2_events` — the per-shard input of the
/// contention convolution ([`convolve_shards`]). The timing of the run
/// itself is identical to the unrecorded shard.
pub fn run_core_shard_with_events(
    workload: &Workload,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
    core: usize,
) -> SimReport {
    run_core_shard_inner(workload, system, exp, sys, core, true)
}

fn run_core_shard_inner(
    workload: &Workload,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
    core: usize,
    record_events: bool,
) -> SimReport {
    let shard_sys = SystemConfig {
        num_cores: 1,
        ..sys.clone()
    };
    let stream = Box::new(workload.walker(core)) as Box<dyn Iterator<Item = FetchRecord>>;
    let pf = build_prefetcher(system, workload, &shard_sys, shard_seed(exp.seed, core));
    let mut cmp = Cmp::new(shard_sys, vec![stream], pf);
    cmp.set_record_l2_events(record_events);
    cmp.run_with_warmup(exp.warmup, exp.instructions)
}

/// Runs one cell in sharded mode: every core of `sys` becomes one
/// [`run_core_shard`] unit, the units fan out over `threads` workers
/// ([`par::map`], order-preserving), and the per-core reports merge
/// deterministically ([`SimReport::merge_shards`]). The result is
/// byte-identical at every `threads` value — `threads == 1` *is* the
/// sequential path, same units, same merge — which the
/// `engine_determinism` suite pins across 1/2/8 shards.
pub fn run_cell_sharded(
    workload: &Workload,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
    threads: usize,
) -> SimReport {
    let cores: Vec<usize> = (0..sys.num_cores).collect();
    let parts = par::map(&cores, threads, |_, &core| {
        run_core_shard(workload, system, exp, sys, core)
    });
    SimReport::merge_shards(&parts)
}

/// Runs one cell in contention-aware sharded mode: per-core shards with
/// event recording ([`run_core_shard_with_events`]) fan out over
/// `threads` workers, then [`convolve_shards`] reconstructs the shared-L2
/// contention the private slices hid. Byte-identical at every `threads`
/// value, like the plain sharded mode.
pub fn run_cell_sharded_contended(
    workload: &Workload,
    system: &SystemSpec,
    exp: &ExpConfig,
    sys: &SystemConfig,
    threads: usize,
) -> SimReport {
    let cores: Vec<usize> = (0..sys.num_cores).collect();
    let parts = par::map(&cores, threads, |_, &core| {
        run_core_shard_with_events(workload, system, exp, sys, core)
    });
    convolve_shards(&parts, sys)
}

/// The post-hoc contention convolution: deterministically merges
/// per-shard L2 event timelines through a reconstruction of the *shared*
/// L2 — one bank-occupancy / `mem_gap` channel ([`ChannelModel`], the
/// same arithmetic the live L2 applies) plus one shared instruction
/// directory — and folds the difference back into the merged report.
///
/// Private slices distort the coupled CMP in two opposite directions,
/// and the replay reconstructs both:
///
/// * **destructive interference** — bank queueing and memory-channel
///   serialization between cores vanishes in private slices. The merged
///   timeline replays through one shared channel, and added delay is
///   charged to the waiting core.
/// * **constructive interference** — in the coupled CMP the first core
///   to fetch an instruction block warms it for every other core, while
///   each private slice pays its own memory trip. The replay tracks a
///   shared directory over the merged instruction events: a block
///   recorded as a private miss that an earlier event (any shard)
///   already brought in becomes a shared-L2 hit, crediting the memory
///   round-trip back to the core and freeing the memory channel. (A
///   private *hit* is always a shared hit too: the shared warm set is a
///   superset of every private one.)
///
/// The replay is **closed-loop**: each shard carries a signed skew — net
/// contention absorbed minus sharing recovered so far — and every one of
/// its events issues at `recorded issue + skew`, exactly as the real
/// core's requests would slide under those effects. (An open-loop replay
/// at recorded issue times diverges as soon as combined demand exceeds
/// channel capacity.) Events are processed in adjusted-issue order via a
/// k-way merge (ties broken by shard then sequence — a total order, so
/// any shard schedule reconverges bit-identically).
///
/// Only *exposed* deltas move a shard's skew and cycle count:
/// instruction fetches (the fetch unit spins on them — also reflected in
/// the fetch-stall counter) and memory-bound data misses (hundreds of
/// cycles, past what the ROB can overlap). Bank jitter on L2-hit data,
/// prefetches, IML traffic, and writebacks reshapes channel occupancy
/// and directory state — exactly its coupled-CMP role — without being
/// waited on.
///
/// The merged report's `queue_delay`, `inst_hits`/`inst_misses`, and
/// `mem_transfers` are replaced by their reconstructed shared-L2 values;
/// the gross charge and credit are exposed as `contended_cycles` /
/// `shared_hit_cycles` counters; and the consumed timelines are dropped
/// (the result encodes as an eventless layout-1 report).
///
/// # Panics
///
/// Panics if any part is not a single-core shard report.
pub fn convolve_shards(parts: &[SimReport], sys: &SystemConfig) -> SimReport {
    assert!(
        parts.iter().all(|p| p.cores.len() == 1),
        "convolve_shards expects single-core shard reports"
    );
    let mem_latency = sys.mem_latency as i64;
    // What each shard observed privately, per event: bank queueing and,
    // on a miss, the memory wait + round-trip, kept separate so each
    // event kind can expose the component the core actually waits on.
    let private: Vec<Vec<(i64, i64)>> = parts
        .iter()
        .map(|p| {
            let mut model = ChannelModel::new(sys);
            p.l2_events
                .iter()
                .map(|e| {
                    let d = model.issue(e);
                    let mem = if e.hit {
                        0
                    } else {
                        d.mem_wait as i64 + mem_latency
                    };
                    (d.queue as i64, mem)
                })
                .collect()
        })
        .collect();
    // How much of each event's latency the shard's private timeline
    // actually absorbed: the gap to the shard's next event. Overlapped
    // trips (a burst of next-line prefetches in flight together) issue
    // back-to-back, so only the last event before a stall carries a
    // large gap — crediting a converted miss more than its gap would
    // compress the timeline below what the private run ever spent.
    let gap_to_next: Vec<Vec<i64>> = parts
        .iter()
        .map(|p| {
            (0..p.l2_events.len())
                .map(|i| match p.l2_events.get(i + 1) {
                    Some(next) => (next.issue - p.l2_events[i].issue) as i64,
                    None => (p.cycles.saturating_sub(p.l2_events[i].issue)) as i64,
                })
                .collect()
        })
        .collect();
    // K-way merge by adjusted issue time. `Reverse` turns the max-heap
    // into a min-heap; the (time, shard, index) key is a total order.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = parts
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.l2_events.is_empty())
        .map(|(s, p)| Reverse((p.l2_events[0].issue, s, 0)))
        .collect();
    let mut shared = ChannelModel::new(sys);
    // Seed the shared directory with the union of the shards' warm sets:
    // in the coupled CMP the warmup phases of all cores warmed *one* L2,
    // so a block any shard warmed is warm for every core. Sorted +
    // deduplicated insertion keeps the seeding deterministic.
    let mut directory = SetAssocCache::new(sys.l2_bytes, sys.l2_ways);
    let mut warm: Vec<BlockAddr> = parts
        .iter()
        .flat_map(|p| p.l2_warm_blocks.iter().copied())
        .collect();
    warm.sort_unstable();
    warm.dedup();
    // Blocks the shared directory has ever held in this reconstruction:
    // a private hit on a block the shared L2 tracked and evicted is a
    // capacity miss the coupled CMP would take. Membership-only, so the
    // deterministic open-addressed BlockMap does the job of a HashSet.
    let mut tracked_blocks: tifs_collections::BlockMap<()> = tifs_collections::BlockMap::new();
    for b in warm {
        tracked_blocks.insert(b, ());
        directory.insert(b);
    }
    let mut shared_queue = 0u64;
    let mut inst_hits = 0u64;
    let mut inst_misses = 0u64;
    let mut mem_transfers = 0u64;
    // Per-shard signed skew: net contention absorbed minus sharing
    // recovered so far. It both shifts the shard's later issue times in
    // the replay and, at the end, is the shard's total cycle adjustment.
    let mut skew = vec![0i64; parts.len()];
    let mut net_fetch = vec![0i64; parts.len()];
    let mut charged = 0u64;
    let mut credited = 0u64;
    // Hard physical bound on sharing credits: a shard cannot recover
    // more fetch-side time than its private run actually spent stalled.
    // (A latency-hiding prefetcher may leave a converted miss's whole
    // trip unexposed — the gap cap alone cannot see that.)
    let mut credit_budget: Vec<i64> = parts
        .iter()
        .map(|p| p.cores[0].fetch_stall_cycles as i64)
        .collect();
    while let Some(Reverse((adjusted, s, i))) = heap.pop() {
        let e = &parts[s].l2_events[i];
        // Shared-directory outcome for instruction-side events: a
        // private hit is warm in the shared L2 too (the union of warm
        // sets), and a private miss becomes a hit once any shard has
        // fetched the block inside the measured window.
        let instruction = matches!(e.kind, L2ReqKind::IFetch | L2ReqKind::IPrefetch);
        let hit = if instruction {
            let resident = directory.access(e.block);
            let tracked = tracked_blocks.contains(e.block);
            // A private hit is warm in the shared L2 too (union of warm
            // sets) — unless the shared directory has tracked the block
            // in this window and evicted it again: four cores' working
            // sets share one L2, and that capacity pressure is real in
            // the coupled CMP. A private miss becomes a hit once any
            // shard has fetched the block inside the window.
            let warm = resident || (e.hit && !tracked);
            if warm {
                inst_hits += 1;
            } else {
                inst_misses += 1;
            }
            directory.insert(e.block);
            tracked_blocks.insert(e.block, ());
            warm
        } else {
            e.hit
        };
        let d = shared.issue(&tifs_sim::l2::L2Event {
            issue: adjusted,
            hit,
            ..*e
        });
        shared_queue += d.queue;
        if !hit {
            mem_transfers += 1;
        }
        let shared_mem = if hit {
            0
        } else {
            d.mem_wait as i64 + mem_latency
        };
        let (priv_queue, priv_mem) = private[s][i];
        let converted = hit && !e.hit;
        // What of the delta the core actually waits on, by kind:
        // * demand instruction fetches expose everything (the fetch unit
        //   spins on the fill); a warm-shared conversion (miss → hit)
        //   credits the trip back, capped by the gap the stall actually
        //   carved into the private timeline;
        // * next-line / stream prefetches expose only their memory
        //   round-trip and only up to that same gap — overlapped trips
        //   in a burst collapse to the one stall the core observed —
        //   never bank jitter, which the prefetch distance hides;
        // * L2-missing data accesses stall the ROB for hundreds of
        //   cycles and expose everything; L2-hit data jitter is
        //   overlapped by the out-of-order window;
        // * IML traffic and writebacks are never waited on.
        let delta = match e.kind {
            L2ReqKind::IFetch if converted => {
                d.queue as i64 - (priv_queue + priv_mem).min(gap_to_next[s][i])
            }
            L2ReqKind::IFetch => (d.queue as i64 + shared_mem) - (priv_queue + priv_mem),
            L2ReqKind::IPrefetch if converted => -priv_mem.min(gap_to_next[s][i]),
            L2ReqKind::Data if !e.hit => (d.queue as i64 + shared_mem) - (priv_queue + priv_mem),
            L2ReqKind::IPrefetch
            | L2ReqKind::Data
            | L2ReqKind::ImlRead
            | L2ReqKind::ImlWrite
            | L2ReqKind::Writeback => 0,
        };
        let delta = if delta < 0 {
            let granted = (-delta).min(credit_budget[s]);
            credit_budget[s] -= granted;
            -granted
        } else {
            delta
        };
        if delta != 0 {
            skew[s] += delta;
            if delta >= 0 {
                charged += delta as u64;
            } else {
                credited += (-delta) as u64;
            }
            if matches!(e.kind, L2ReqKind::IFetch | L2ReqKind::IPrefetch) {
                net_fetch[s] += delta;
            }
        }
        if let Some(next) = parts[s].l2_events.get(i + 1) {
            // A credited shard runs ahead of its private timeline, but
            // never issues before cycle 0 of the window.
            let at = next.issue as i64 + skew[s];
            heap.push(Reverse((at.max(0) as u64, s, i + 1)));
        }
    }
    let mut merged = SimReport::merge_shards(parts);
    merged.l2_events.clear();
    merged.l2_warm_blocks.clear();
    merged.l2.queue_delay = shared_queue;
    merged.l2.inst_hits = inst_hits;
    merged.l2.inst_misses = inst_misses;
    // Data/writeback transfers kept their recorded outcomes; instruction
    // transfers were reconstructed against the shared directory.
    merged.l2.mem_transfers = mem_transfers;
    merged.cycles = 0;
    for (i, part) in parts.iter().enumerate() {
        let cycles = (part.cycles as i64 + skew[i]).max(1) as u64;
        merged.cores[i].cycles = (merged.cores[i].cycles as i64 + skew[i]).max(1) as u64;
        merged.cores[i].fetch_stall_cycles =
            (merged.cores[i].fetch_stall_cycles as i64 + net_fetch[i]).max(0) as u64;
        merged.cycles = merged.cycles.max(cycles);
    }
    merged
        .prefetcher
        .push(("contended_cycles".into(), charged as f64));
    merged
        .prefetcher
        .push(("shared_hit_cycles".into(), credited as f64));
    merged
}

/// A set of workloads built once and shared by every figure that runs on
/// them: the substrate under both timing grids ([`ExperimentGrid::run_on`])
/// and trace analyses ([`Lab::analyze`]).
pub struct Lab {
    exp: ExpConfig,
    specs: Vec<WorkloadSpec>,
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

    /// As [`build`](Self::build), with an explicit worker count
    /// ([`ExperimentGrid`] forwards its own setting here so `serial()`
    /// grids really are serial end to end).
    pub fn build_with_threads(specs: Vec<WorkloadSpec>, exp: ExpConfig, threads: usize) -> Lab {
        let workloads = par::map(&specs, threads, |_, spec| Workload::build(spec, exp.seed));
        let traces = specs.iter().map(|_| OnceLock::new()).collect();
        Lab {
            exp,
            specs,
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
    /// [`report_key`] fingerprint of every input, so attached and
    /// detached labs produce identical reports.
    pub fn with_report_store(mut self, store: ReportStore) -> Lab {
        self.report_store = Some(store);
        self
    }

    /// Attaches the stores selected by the environment: the trace store
    /// (`TIFS_TRACE_STORE`) *and* the report store (`TIFS_REPORT_STORE`),
    /// each defaulting to its directory when unset and disabled by
    /// `off`/`0`/`none`. Binaries call this; library users and tests stay
    /// hermetic unless they opt in.
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
        self.specs.len()
    }

    /// Whether the lab holds no workloads.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Spec of workload `i`.
    pub fn spec(&self, i: usize) -> &WorkloadSpec {
        &self.specs[i]
    }

    /// Built workload `i`.
    pub fn workload(&self, i: usize) -> &Workload {
        &self.workloads[i]
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
            &self.specs[i],
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
                    self.specs[i].name
                );
            }
        }
        AnalysisTraces {
            misses,
            lookahead_marks,
        }
    }

    /// Miss traces of workload `i` as `u64` symbols for SEQUITUR.
    pub fn symbol_traces(&self, i: usize) -> Vec<Vec<u64>> {
        self.miss_traces(i)
            .iter()
            .map(|t| t.iter().map(|b| b.0).collect())
            .collect()
    }

    /// Applies a per-workload analysis in parallel, preserving workload
    /// order. The closure gets a [`WorkloadCtx`] exposing the built
    /// workload and the cached miss traces.
    pub fn analyze<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(WorkloadCtx<'_>) -> R + Sync,
    {
        par::map(&self.specs, par::parallelism(), |i, _| {
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
        self.lab.symbol_traces(self.index)
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

/// A declarative (workload × system) grid: build once, run every cell,
/// get keyed reports back.
#[derive(Clone, Debug)]
pub struct ExperimentGrid {
    exp: ExpConfig,
    sys: SystemConfig,
    workloads: Vec<WorkloadSpec>,
    systems: Vec<SystemSpec>,
    threads: Option<usize>,
    mode: Option<ExecMode>,
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
            mode: None,
        }
    }

    /// Replaces the CMP configuration (default: Table II).
    pub fn with_system_config(mut self, sys: SystemConfig) -> Self {
        self.sys = sys;
        self
    }

    /// Adds workloads (rows).
    pub fn workloads(mut self, specs: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads.extend(specs);
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

    /// Chooses the execution mode explicitly: `true` shards every cell's
    /// cores into independent single-core work units
    /// ([`run_core_shard`]), `false` forces the coupled CMP. Unset grids
    /// follow the environment ([`SHARD_CONTENTION_ENV`] / [`SHARD_ENV`]).
    /// Sharded cells model private L2 slices, so the modes are distinct
    /// content in the report store.
    pub fn sharded(self, sharded: bool) -> Self {
        self.mode(if sharded {
            ExecMode::Sharded
        } else {
            ExecMode::Coupled
        })
    }

    /// Chooses the contention-aware sharded mode explicitly: per-core
    /// shards record their L2 timelines and [`convolve_shards`]
    /// reconstructs shared-L2 queueing post hoc.
    pub fn sharded_contended(self) -> Self {
        self.mode(ExecMode::ShardedContended)
    }

    /// Chooses any execution mode explicitly.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = Some(mode);
        self
    }

    fn worker_count(&self) -> usize {
        self.threads.unwrap_or_else(par::parallelism)
    }

    fn exec_mode(&self) -> ExecMode {
        self.mode.unwrap_or_else(ExecMode::from_env)
    }

    /// Builds every workload once, then runs all (workload × system)
    /// cells in parallel (or serially, per [`serial`](Self::serial) /
    /// [`threads`](Self::threads)).
    pub fn run(&self) -> GridResults {
        let lab = Lab::build_with_threads(self.workloads.clone(), self.exp, self.worker_count());
        self.run_on(&lab)
    }

    /// As [`run`](Self::run), on workloads already built in a [`Lab`]
    /// (`all_figures` shares one lab across every figure). Workloads
    /// added via [`workloads`](Self::workloads) are ignored in favour of
    /// the lab's.
    ///
    /// With a [`ReportStore`] attached to the lab, each cell first
    /// consults the store under its [`report_key`]; only missing cells
    /// are simulated (fanned across threads — as whole cells in coupled
    /// mode, as per-core shards in sharded mode) and written through.
    /// The store is a pure cache: attached and detached runs produce
    /// identical results.
    pub fn run_on(&self, lab: &Lab) -> GridResults {
        let mode = self.exec_mode();
        let threads = self.worker_count();
        let store = lab.report_store();
        let cells: Vec<(usize, usize)> = (0..lab.len())
            .flat_map(|w| (0..self.systems.len()).map(move |s| (w, s)))
            .collect();
        let key_of = |w: usize, s: usize| {
            report_key(
                lab.spec(w),
                lab.exp().seed,
                &self.systems[s],
                &self.exp,
                &self.sys,
                mode,
            )
        };
        // Resolve cached cells first (cheap, serial disk reads), then fan
        // only the missing ones out across workers.
        let mut reports: Vec<Option<SimReport>> = match store {
            Some(store) => cells
                .iter()
                .map(|&(w, s)| load_cached_report(store, &key_of(w, s)))
                .collect(),
            None => cells.iter().map(|_| None).collect(),
        };
        let missing: Vec<(usize, usize)> = cells
            .iter()
            .zip(&reports)
            .filter(|(_, cached)| cached.is_none())
            .map(|(&cell, _)| cell)
            .collect();
        let computed: Vec<SimReport> = if mode.is_sharded() {
            // One work unit per (cell, core): a single wide cell spreads
            // its cores across every worker.
            let record = mode == ExecMode::ShardedContended;
            let units: Vec<(usize, usize, usize)> = missing
                .iter()
                .flat_map(|&(w, s)| (0..self.sys.num_cores).map(move |c| (w, s, c)))
                .collect();
            let parts = par::map(&units, threads, |_, &(w, s, c)| {
                run_core_shard_inner(
                    lab.workload(w),
                    &self.systems[s],
                    &self.exp,
                    &self.sys,
                    c,
                    record,
                )
            });
            parts
                .chunks(self.sys.num_cores.max(1))
                .map(|chunk| {
                    if record {
                        convolve_shards(chunk, &self.sys)
                    } else {
                        SimReport::merge_shards(chunk)
                    }
                })
                .collect()
        } else {
            par::map(&missing, threads, |_, &(w, s)| {
                run_cell(lab.workload(w), &self.systems[s], &self.exp, &self.sys)
            })
        };
        let mut computed_iter = computed.into_iter();
        for (slot, &(w, s)) in reports.iter_mut().zip(&cells) {
            if slot.is_none() {
                let report = computed_iter.next().expect("one report per missing cell");
                if let Some(store) = store {
                    if let Err(e) = store.save(&key_of(w, s), &report.to_canonical_bytes()) {
                        eprintln!(
                            "[report-store] failed to persist cell ({}, {}): {e}",
                            lab.spec(w).name,
                            self.systems[s].name()
                        );
                    }
                }
                *slot = Some(report);
            }
        }
        let mut rows: Vec<GridRow> = (0..lab.len())
            .map(|w| GridRow {
                workload: lab.spec(w).name.to_string(),
                reports: Vec::with_capacity(self.systems.len()),
            })
            .collect();
        for ((w, _), report) in cells.into_iter().zip(reports) {
            rows[w].reports.push(report.expect("every cell resolved"));
        }
        GridResults {
            systems: self.systems.clone(),
            rows,
        }
    }
}

/// One workload's reports, in grid system order.
#[derive(Clone, Debug)]
pub struct GridRow {
    /// Workload display name.
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
        // Execution mode is distinct content: all three modes address
        // disjoint store entries.
        let sharded = report_key(&spec, exp.seed, &system, &exp, &sys, ExecMode::Sharded);
        let contended = report_key(
            &spec,
            exp.seed,
            &system,
            &exp,
            &sys,
            ExecMode::ShardedContended,
        );
        assert_ne!(base, sharded);
        assert_ne!(base, contended);
        assert_ne!(sharded, contended);
    }

    #[test]
    fn contended_cell_is_thread_count_invariant_and_reconstructs_contention() {
        let workload = Workload::build(&WorkloadSpec::tiny_test(), 3);
        let exp = tiny_exp();
        let mut sys = SystemConfig::table2();
        sys.num_cores = 2; // keep the unit test fast but multi-core
        let system = SystemSpec::Kind(SystemKind::TifsVirtualized);
        let sequential = run_cell_sharded_contended(&workload, &system, &exp, &sys, 1);
        let parallel = run_cell_sharded_contended(&workload, &system, &exp, &sys, 4);
        assert_eq!(
            sequential.to_canonical_bytes(),
            parallel.to_canonical_bytes(),
            "shard scheduling must not change a single byte"
        );
        // The convolution consumes the timelines and reports its gross
        // charge and credit explicitly.
        assert!(sequential.l2_events.is_empty(), "events are consumed");
        assert!(
            sequential.l2_warm_blocks.is_empty(),
            "warm sets are consumed"
        );
        assert!(sequential.prefetcher_counter("contended_cycles").is_some());
        assert!(sequential.prefetcher_counter("shared_hit_cycles").is_some());
        // The reconstruction moves timing (charges and credits), never
        // work: retirement counts match the private-slice run exactly,
        // and the two modes are distinct content.
        let plain = run_cell_sharded(&workload, &system, &exp, &sys, 1);
        for (contended_core, plain_core) in sequential.cores.iter().zip(&plain.cores) {
            assert_eq!(contended_core.retired, plain_core.retired);
        }
        assert_ne!(
            sequential.to_canonical_bytes(),
            plain.to_canonical_bytes(),
            "contended and plain sharded reports must differ"
        );
    }

    #[test]
    fn convolution_of_one_shard_recovers_the_private_run() {
        // A single shard merged through the shared channel sees exactly
        // the channel it already ran against: zero added delay, identical
        // core timing.
        let workload = Workload::build(&WorkloadSpec::tiny_test(), 3);
        let exp = tiny_exp();
        let mut sys = SystemConfig::table2();
        sys.num_cores = 1;
        let system = SystemSpec::Kind(SystemKind::TifsVirtualized);
        let part = run_core_shard_with_events(&workload, &system, &exp, &sys, 0);
        assert!(!part.l2_events.is_empty(), "the shard must record events");
        let convolved = convolve_shards(std::slice::from_ref(&part), &sys);
        assert_eq!(
            convolved.prefetcher_counter("contended_cycles"),
            Some(0.0),
            "one shard alone has nobody to contend with"
        );
        assert_eq!(convolved.cores, part.cores);
        assert_eq!(convolved.cycles, part.cycles);
    }

    #[test]
    fn event_recording_does_not_perturb_shard_timing() {
        let workload = Workload::build(&WorkloadSpec::tiny_test(), 3);
        let exp = tiny_exp();
        let sys = SystemConfig::table2();
        let system = SystemSpec::Kind(SystemKind::TifsVirtualized);
        let plain = run_core_shard(&workload, &system, &exp, &sys, 0);
        let mut recorded = run_core_shard_with_events(&workload, &system, &exp, &sys, 0);
        assert!(!recorded.l2_events.is_empty());
        assert!(!recorded.l2_warm_blocks.is_empty());
        recorded.l2_events.clear();
        recorded.l2_warm_blocks.clear();
        assert_eq!(
            recorded.to_canonical_bytes(),
            plain.to_canonical_bytes(),
            "recording must be a pure observer"
        );
    }

    #[test]
    fn sharded_cell_is_thread_count_invariant() {
        let workload = Workload::build(&WorkloadSpec::tiny_test(), 3);
        let exp = tiny_exp();
        let mut sys = SystemConfig::table2();
        sys.num_cores = 2; // keep the unit test fast but multi-core
        let system = SystemSpec::Kind(SystemKind::TifsVirtualized);
        let sequential = run_cell_sharded(&workload, &system, &exp, &sys, 1);
        let parallel = run_cell_sharded(&workload, &system, &exp, &sys, 4);
        assert_eq!(
            sequential.to_canonical_bytes(),
            parallel.to_canonical_bytes(),
            "shard scheduling must not change a single byte"
        );
        assert_eq!(sequential.cores.len(), 2);
        assert_eq!(sequential.total_retired(), 2 * exp.instructions);
    }

    #[test]
    fn grid_report_store_warm_start_is_all_hits() {
        let dir =
            std::env::temp_dir().join(format!("tifs-engine-report-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = ExperimentGrid::new(tiny_exp())
            .with_system_config(SystemConfig::single_core())
            .systems([SystemKind::NextLine, SystemKind::TifsVirtualized])
            .sharded(false);
        let mk = || {
            Lab::build(vec![WorkloadSpec::tiny_test()], tiny_exp())
                .with_report_store(ReportStore::new(&dir).expect("store dir"))
        };
        let cold_lab = mk();
        let cold = grid.run_on(&cold_lab);
        let s = cold_lab.report_store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (0, 2, 2));
        let warm_lab = mk();
        let warm = grid.run_on(&warm_lab);
        let s = warm_lab.report_store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (2, 0, 0));
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        // The store is a pure cache: a storeless lab agrees exactly.
        let plain = grid.run_on(&Lab::build(vec![WorkloadSpec::tiny_test()], tiny_exp()));
        assert_eq!(format!("{plain:?}"), format!("{warm:?}"));
        let _ = std::fs::remove_dir_all(&dir);
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
        let mix = run_cell_mix(&programs, &system, &exp, &sys);
        let legacy = run_cell(&Workload::build(&spec, exp.seed), &system, &exp, &sys);
        assert_eq!(
            mix.to_canonical_bytes(),
            legacy.to_canonical_bytes(),
            "a degenerate mix must reproduce the legacy cell byte for byte"
        );
    }

    #[test]
    fn mix_cells_report_store_warm_start_is_all_hits() {
        let dir =
            std::env::temp_dir().join(format!("tifs-engine-mix-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sys = SystemConfig::table2();
        sys.num_cores = 2;
        let cells = [
            CellWorkload::Homogeneous(WorkloadSpec::tiny_test()),
            CellWorkload::Mix(vec![
                WorkloadSpec::tiny_test(),
                WorkloadSpec::tiny_test().with_duty_cycle(0.5),
            ]),
        ];
        let systems = [
            SystemSpec::Kind(SystemKind::NextLine),
            SystemSpec::Kind(SystemKind::TifsVirtualized),
        ];
        let mk = || {
            Lab::build(Vec::new(), tiny_exp())
                .with_report_store(ReportStore::new(&dir).expect("store dir"))
        };
        let cold_lab = mk();
        let cold = run_mix_cells(&cold_lab, &sys, &cells, &systems, 2);
        let s = cold_lab.report_store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (0, 4, 4));
        let warm_lab = mk();
        let warm = run_mix_cells(&warm_lab, &sys, &cells, &systems, 2);
        let s = warm_lab.report_store().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.writes), (4, 0, 0));
        // The store is a pure cache: a storeless lab agrees exactly.
        let plain = run_mix_cells(
            &Lab::build(Vec::new(), tiny_exp()),
            &sys,
            &cells,
            &systems,
            2,
        );
        for (rows, other) in [(&cold, &warm), (&plain, &warm)] {
            for (row, other_row) in rows.iter().zip(other.iter()) {
                for (report, other_report) in row.iter().zip(other_row.iter()) {
                    assert_eq!(
                        report.to_canonical_bytes(),
                        other_report.to_canonical_bytes()
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
