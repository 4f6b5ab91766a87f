//! Synthetic commercial-server workloads mirroring the paper's Table I.
//!
//! The paper evaluates TIFS on FLEXUS full-system traces of OLTP (TPC-C on
//! Oracle and DB2), DSS (TPC-H queries 2 and 17 on DB2), and web serving
//! (SPECweb99 on Apache and Zeus). Those traces are not available, so this
//! module builds *synthetic* programs whose instruction-fetch behaviour
//! reproduces the statistics TIFS is sensitive to:
//!
//! * **instruction footprint** relative to the 64 KB L1-I (OLTP: multi-MB,
//!   Web: ~0.5–1 MB, DSS: ~0.1–0.4 MB);
//! * **deep repetition**: each transaction type follows a fixed call path
//!   through hundreds of functions, so L1-I miss sequences recur (94% of
//!   misses in the paper repeat a prior stream);
//! * **divergence**: data-dependent indirect calls and large hammocks break
//!   streams at a controlled period, setting the temporal-stream length
//!   distribution (paper Figure 5);
//! * **branchiness**: small (within-block) hammocks and inner loops that do
//!   *not* perturb the block-level miss sequence but do throttle
//!   branch-predictor-directed prefetchers (paper Figures 2 and 10);
//! * **one-off paths**: cold functions executed once or twice
//!   (non-repetitive misses);
//! * **OS activity**: traps into handler code at a configurable period.
//!
//! Small hammock arms are kept under one cache block (16 instructions) so
//! their outcomes never change which blocks are fetched — exactly the
//! "unpredictable sequential fetch" scenario of paper Section 3.1, where
//! fetch-directed prefetchers lose lookahead to branches although the block
//! sequence is deterministic.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::exec::{DataProfile, ExecConfig, TransactionMix, Walker};
use crate::program::{FuncId, FunctionBuilder, ImageBuilder, PlainMem, Program, StaticOp};
use crate::types::Addr;

/// Broad workload class (paper Table I groups).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Online transaction processing (TPC-C).
    Oltp,
    /// Decision support (TPC-H).
    Dss,
    /// Web serving (SPECweb99).
    Web,
}

/// Parameters of one synthetic workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Display name matching the paper ("OLTP DB2", ...).
    pub name: &'static str,
    /// Workload class.
    pub class: WorkloadClass,
    /// Mixed into every seed so distinct workloads differ structurally.
    pub seed_salt: u64,
    /// Number of hot transaction types.
    pub n_txn_types: usize,
    /// Call sites per transaction driver.
    pub path_len: usize,
    /// Instructions per path function: (min, max).
    pub func_instrs: (u32, u32),
    /// Fraction of driver call sites that target the shared pool.
    pub shared_frac: f64,
    /// Number of functions in the shared pool.
    pub shared_pool: usize,
    /// Every k-th driver call site is a divergence point.
    pub divergence_every: usize,
    /// Variant functions per divergent (indirect) call site.
    pub n_variants: usize,
    /// Mean instructions between small hammocks inside function bodies.
    pub hammock_period: u32,
    /// Fraction of small hammocks that are data-dependent (50/50).
    pub data_dep_frac: f64,
    /// Probability a path function contains an innermost loop.
    pub inner_loop_prob: f64,
    /// Mean iterations of innermost loops.
    pub avg_loop_iters: f64,
    /// Insert a tight scan loop before each driver call site (DSS shape).
    pub scan_loops: bool,
    /// Mean iterations of driver scan loops (when `scan_loops`).
    pub scan_iters: f64,
    /// Number of cold (one-off) entry functions.
    pub cold_pool: usize,
    /// Probability a transaction comes from the cold pool.
    pub cold_prob: f64,
    /// Mean instructions between OS traps (0 disables).
    pub trap_period: u64,
    /// Number of trap handler functions.
    pub n_trap_handlers: usize,
    /// Data-side latency profile.
    pub data: DataProfile,
    /// Fraction of scheduling quanta spent on real transactions; the rest
    /// idle-spin in a single resident block (throttled/idle tenant model).
    /// 1.0 (the default) is the legacy always-busy behaviour.
    pub duty_cycle: f64,
    /// Mean instructions between context switches (0 disables). A switch
    /// emits a flush event: the record is flagged and timing prefetchers
    /// drop the core's accumulated metadata.
    pub ctx_switch_period: u64,
}

impl WorkloadSpec {
    /// OLTP on DB2 (TPC-C, 100 warehouses, 64 clients — Table I).
    pub fn oltp_db2() -> WorkloadSpec {
        WorkloadSpec {
            name: "OLTP DB2",
            class: WorkloadClass::Oltp,
            seed_salt: 0xDB2,
            n_txn_types: 8,
            path_len: 260,
            func_instrs: (32, 96),
            shared_frac: 0.35,
            shared_pool: 900,
            divergence_every: 40,
            n_variants: 6,
            hammock_period: 14,
            data_dep_frac: 0.18,
            inner_loop_prob: 0.25,
            avg_loop_iters: 6.0,
            scan_loops: false,
            scan_iters: 0.0,
            cold_pool: 1500,
            cold_prob: 0.035,
            trap_period: 20_000,
            n_trap_handlers: 8,
            data: DataProfile {
                l1d_miss_rate: 0.030,
                l2_hit_frac: 0.85,
            },
            duty_cycle: 1.0,
            ctx_switch_period: 0,
        }
    }

    /// OLTP on Oracle (TPC-C, 100 warehouses, 16 clients — Table I).
    ///
    /// The paper reports the longest temporal streams here (median ~80
    /// discontinuous blocks), so divergence points are rarer than in DB2.
    pub fn oltp_oracle() -> WorkloadSpec {
        WorkloadSpec {
            name: "OLTP Oracle",
            class: WorkloadClass::Oltp,
            seed_salt: 0x0AC1E,
            n_txn_types: 6,
            path_len: 340,
            func_instrs: (36, 110),
            shared_frac: 0.30,
            shared_pool: 1000,
            divergence_every: 170,
            n_variants: 5,
            hammock_period: 15,
            data_dep_frac: 0.15,
            inner_loop_prob: 0.22,
            avg_loop_iters: 5.0,
            scan_loops: false,
            scan_iters: 0.0,
            cold_pool: 1200,
            cold_prob: 0.03,
            trap_period: 30_000,
            n_trap_handlers: 8,
            data: DataProfile {
                l1d_miss_rate: 0.028,
                l2_hit_frac: 0.85,
            },
            duty_cycle: 1.0,
            ctx_switch_period: 0,
        }
    }

    /// DSS TPC-H Query 2 on DB2 (join-dominated — Table I).
    pub fn dss_qry2() -> WorkloadSpec {
        WorkloadSpec {
            name: "DSS Qry2",
            class: WorkloadClass::Dss,
            seed_salt: 0xD552,
            n_txn_types: 2,
            path_len: 70,
            func_instrs: (40, 110),
            shared_frac: 0.5,
            shared_pool: 260,
            divergence_every: 20,
            n_variants: 4,
            hammock_period: 18,
            data_dep_frac: 0.15,
            inner_loop_prob: 0.5,
            avg_loop_iters: 12.0,
            scan_loops: true,
            scan_iters: 18.0,
            cold_pool: 150,
            cold_prob: 0.01,
            trap_period: 25_000,
            n_trap_handlers: 6,
            data: DataProfile {
                l1d_miss_rate: 0.06,
                l2_hit_frac: 0.55,
            },
            duty_cycle: 1.0,
            ctx_switch_period: 0,
        }
    }

    /// DSS TPC-H Query 17 on DB2 (balanced scan-join — Table I).
    ///
    /// Small instruction footprint, heavily loop-resident: instruction
    /// prefetching shows negligible benefit (paper Figure 13).
    pub fn dss_qry17() -> WorkloadSpec {
        WorkloadSpec {
            name: "DSS Qry17",
            class: WorkloadClass::Dss,
            seed_salt: 0xD5517,
            n_txn_types: 2,
            path_len: 60,
            func_instrs: (30, 90),
            shared_frac: 0.6,
            shared_pool: 210,
            divergence_every: 10,
            n_variants: 3,
            hammock_period: 20,
            data_dep_frac: 0.15,
            inner_loop_prob: 0.6,
            avg_loop_iters: 18.0,
            scan_loops: true,
            scan_iters: 40.0,
            cold_pool: 40,
            cold_prob: 0.008,
            trap_period: 25_000,
            n_trap_handlers: 6,
            data: DataProfile {
                l1d_miss_rate: 0.07,
                l2_hit_frac: 0.5,
            },
            duty_cycle: 1.0,
            ctx_switch_period: 0,
        }
    }

    /// Apache HTTP Server 2.0 (SPECweb99, 4K connections — Table I).
    ///
    /// Mid-size footprint with dense data-dependent hammocks
    /// (`core_output_filter()`, paper Section 3.2).
    pub fn web_apache() -> WorkloadSpec {
        WorkloadSpec {
            name: "Web Apache",
            class: WorkloadClass::Web,
            seed_salt: 0xA9AC4E,
            n_txn_types: 6,
            path_len: 150,
            func_instrs: (30, 90),
            shared_frac: 0.4,
            shared_pool: 650,
            divergence_every: 30,
            n_variants: 7,
            hammock_period: 10,
            data_dep_frac: 0.35,
            inner_loop_prob: 0.3,
            avg_loop_iters: 6.0,
            scan_loops: false,
            scan_iters: 0.0,
            cold_pool: 700,
            cold_prob: 0.03,
            trap_period: 12_000,
            n_trap_handlers: 8,
            data: DataProfile {
                l1d_miss_rate: 0.025,
                l2_hit_frac: 0.85,
            },
            duty_cycle: 1.0,
            ctx_switch_period: 0,
        }
    }

    /// Zeus Web Server v4.3 (SPECweb99, 4K connections — Table I).
    ///
    /// Smaller, tighter event-loop code than Apache; lower miss rate.
    pub fn web_zeus() -> WorkloadSpec {
        WorkloadSpec {
            name: "Web Zeus",
            class: WorkloadClass::Web,
            seed_salt: 0x2E05,
            n_txn_types: 4,
            path_len: 80,
            func_instrs: (30, 85),
            shared_frac: 0.5,
            shared_pool: 380,
            divergence_every: 30,
            n_variants: 4,
            hammock_period: 14,
            data_dep_frac: 0.2,
            inner_loop_prob: 0.4,
            avg_loop_iters: 8.0,
            scan_loops: false,
            scan_iters: 0.0,
            cold_pool: 260,
            cold_prob: 0.015,
            trap_period: 15_000,
            n_trap_handlers: 6,
            data: DataProfile {
                l1d_miss_rate: 0.022,
                l2_hit_frac: 0.85,
            },
            duty_cycle: 1.0,
            ctx_switch_period: 0,
        }
    }

    /// All six Table-I workloads in the paper's presentation order.
    pub fn all_six() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::oltp_db2(),
            WorkloadSpec::oltp_oracle(),
            WorkloadSpec::dss_qry2(),
            WorkloadSpec::dss_qry17(),
            WorkloadSpec::web_apache(),
            WorkloadSpec::web_zeus(),
        ]
    }

    /// A deliberately tiny workload for unit tests and doc examples: small
    /// footprint, quick to simulate, still repetitive.
    pub fn tiny_test() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny-test",
            class: WorkloadClass::Web,
            seed_salt: 0x7E57,
            n_txn_types: 2,
            path_len: 12,
            func_instrs: (20, 50),
            shared_frac: 0.4,
            shared_pool: 20,
            divergence_every: 5,
            n_variants: 3,
            hammock_period: 12,
            data_dep_frac: 0.3,
            inner_loop_prob: 0.3,
            avg_loop_iters: 4.0,
            scan_loops: false,
            scan_iters: 0.0,
            cold_pool: 10,
            cold_prob: 0.02,
            trap_period: 2000,
            n_trap_handlers: 2,
            data: DataProfile::default(),
            duty_cycle: 1.0,
            ctx_switch_period: 0,
        }
    }

    /// A small workload whose hot text overflows the 16 KB Table II
    /// L1-I: recurring instruction misses at unit-test cost. The
    /// flush-recovery and capacity tests need misses to measure —
    /// [`tiny_test`](Self::tiny_test) is L1-resident by design and
    /// cannot exercise either.
    pub fn tiny_server() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny-server",
            seed_salt: 0x5E41,
            path_len: 20,
            shared_pool: 140,
            cold_pool: 40,
            cold_prob: 0.04,
            ..WorkloadSpec::tiny_test()
        }
    }

    /// Returns this spec throttled to spend only `duty_cycle` of its
    /// scheduling quanta on real transactions (the rest idle-spin in one
    /// resident block). `1.0` is a no-op and keeps the legacy trace and
    /// report keys.
    pub fn with_duty_cycle(mut self, duty_cycle: f64) -> WorkloadSpec {
        self.duty_cycle = duty_cycle.clamp(0.0, 1.0);
        self
    }

    /// Returns this spec with context switches every ~`period` instructions
    /// (geometric), each emitting a flush event. `0` disables switching and
    /// keeps the legacy trace and report keys.
    pub fn with_ctx_switch_period(mut self, period: u64) -> WorkloadSpec {
        self.ctx_switch_period = period;
        self
    }
}

/// A generated workload: the shared program image plus per-core execution
/// configuration.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The shared program (all cores execute the same image, as in the
    /// paper's CMP where streams logged by one core can serve another).
    pub program: Program,
    /// Transaction mix for the drivers.
    pub mix: TransactionMix,
    /// Executor configuration (traps, data profile).
    pub exec: ExecConfig,
    /// The generating spec.
    pub spec: WorkloadSpec,
    /// Seed this workload was built with.
    pub seed: u64,
}

/// Byte stride between the text bases of distinct mix slots. It fits the
/// widest Table I text (OLTP Oracle spans ~1.3 MB at seed 42) twelve
/// times over, and is small enough that 16 slots stay far below the
/// simulator's IML mirror region (block `0x0800_0000`) and data region
/// (block `0x4000_0000`). Placing a program in a slot asserts that its
/// text fits one stride, so a tenant never aliases the next slot's
/// addresses in the shared L2 or the prefetcher metadata.
const SLOT_STRIDE_BYTES: u64 = 0x0100_0000;

/// Text base of mix slot 0. Lower addresses stay unmapped, apart from the
/// OS idle loop.
const TEXT_BASE: u64 = 0x10_0000;

impl Workload {
    /// Builds the synthetic program for `spec` with a given seed.
    pub fn build(spec: &WorkloadSpec, seed: u64) -> Workload {
        Workload::build_at(spec, seed, 0)
    }

    /// Builds the program in mix slot `slot`: slot 0 is the legacy address
    /// space (`build` delegates here), and slot `k` is the slot-0 image
    /// shifted by `k` strides, so heterogeneous per-core programs never
    /// alias in the shared L2 or the prefetcher metadata. The image built
    /// here is the returned workload's alone; [`CellPrograms`] shares one
    /// image across every slot and row that walks the same program.
    ///
    /// # Panics
    ///
    /// Panics if the program's text does not fit one slot (16 MB).
    pub fn build_at(spec: &WorkloadSpec, seed: u64, slot: usize) -> Workload {
        Builder::new(spec.clone(), seed).build().placed(spec, slot)
    }

    /// This workload's image placed in mix slot `slot` for `spec`, whose
    /// shape must equal this workload's: the specs may differ only in the
    /// two knobs the builder reads into [`ExecConfig`] alone
    /// (`duty_cycle`, `ctx_switch_period`).
    ///
    /// # Panics
    ///
    /// Panics if the program's text does not fit one slot.
    fn placed(&self, spec: &WorkloadSpec, slot: usize) -> Workload {
        debug_assert_eq!(shape_fingerprint(spec), shape_fingerprint(&self.spec));
        let text = self.program.text_range();
        let span = text.end.0 - text.start.0;
        assert!(
            span <= SLOT_STRIDE_BYTES,
            "{}: {span} bytes of text overflow the {SLOT_STRIDE_BYTES}-byte mix slot",
            spec.name
        );
        Workload {
            program: self.program.with_shift(slot as u64 * SLOT_STRIDE_BYTES),
            mix: self.mix.clone(),
            exec: ExecConfig {
                duty_cycle: spec.duty_cycle,
                ctx_switch_period: spec.ctx_switch_period,
                ..self.exec.clone()
            },
            spec: spec.clone(),
            seed: self.seed,
        }
    }

    /// Creates the committed-instruction-stream iterator for one core.
    /// Distinct cores receive decorrelated seeds but share the program.
    pub fn walker(&self, core: usize) -> Walker<'_> {
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(core as u64 + 1);
        Walker::new(&self.program, self.mix.clone(), self.exec.clone(), seed)
    }
}

/// The workload assignment of one experiment cell: either every core walks
/// the same spec (the legacy, homogeneous regime) or core `c` walks mix
/// position `c % len` (heterogeneous multi-tenant fleets, skewed demand,
/// server consolidation).
#[derive(Clone, Debug)]
pub enum CellWorkload {
    /// Every core runs `spec` — byte- and key-identical to the pre-mix
    /// engine.
    Homogeneous(WorkloadSpec),
    /// Core `c` runs `specs[c % specs.len()]`.
    Mix(Vec<WorkloadSpec>),
}

impl From<WorkloadSpec> for CellWorkload {
    fn from(spec: WorkloadSpec) -> CellWorkload {
        CellWorkload::Homogeneous(spec)
    }
}

impl CellWorkload {
    /// All mix positions (a single slot for `Homogeneous`).
    pub fn positions(&self) -> &[WorkloadSpec] {
        match self {
            CellWorkload::Homogeneous(spec) => std::slice::from_ref(spec),
            CellWorkload::Mix(specs) => specs,
        }
    }

    /// Collapses a `Mix` whose positions are all structurally identical
    /// into `Homogeneous`, so degenerate mixes share programs, report
    /// bytes, *and* store keys with the legacy cells they equal.
    pub fn canonical(&self) -> CellWorkload {
        if let CellWorkload::Mix(specs) = self {
            if let [first, rest @ ..] = specs.as_slice() {
                let fp = spec_fingerprint(first);
                if rest.iter().all(|s| spec_fingerprint(s) == fp) {
                    return CellWorkload::Homogeneous(first.clone());
                }
            }
        }
        self.clone()
    }

    /// Display name: the spec name, or a `+`-joined mix list.
    pub fn name(&self) -> String {
        match self {
            CellWorkload::Homogeneous(spec) => spec.name.to_string(),
            CellWorkload::Mix(specs) => {
                specs.iter().map(|s| s.name).collect::<Vec<_>>().join(" + ")
            }
        }
    }
}

fn spec_fingerprint(spec: &WorkloadSpec) -> u128 {
    let mut h = crate::store::Fingerprint::new();
    crate::store::hash_workload_spec(&mut h, spec);
    h.finish()
}

/// Fingerprint of the program `spec` builds: the spec with `duty_cycle`
/// and `ctx_switch_period`, which the builder reads into [`ExecConfig`]
/// alone, at their defaults. Specs of one shape build one image at a
/// given seed.
fn shape_fingerprint(spec: &WorkloadSpec) -> u128 {
    spec_fingerprint(&WorkloadSpec {
        duty_cycle: 1.0,
        ctx_switch_period: 0,
        ..spec.clone()
    })
}

/// One spec per distinct program shape among the positions of `cells`,
/// first occurrence first. Build each at slot 0 with one seed, and
/// [`CellPrograms::assemble`] places every one of `cells` from those
/// images.
pub fn distinct_shapes<'a>(cells: impl IntoIterator<Item = &'a CellWorkload>) -> Vec<WorkloadSpec> {
    let mut shapes: Vec<u128> = Vec::new();
    let mut specs = Vec::new();
    for spec in cells.into_iter().flat_map(CellWorkload::positions) {
        let shape = shape_fingerprint(spec);
        if !shapes.contains(&shape) {
            shapes.push(shape);
            specs.push(spec.clone());
        }
    }
    specs
}

/// The built programs behind one [`CellWorkload`]: one [`Workload`] per
/// *distinct* spec (deduplicated by fingerprint, first occurrence first),
/// each in its own address-space slot. Slots are placed from slot-0
/// images, one per program shape: slots whose specs differ only in
/// `duty_cycle` or `ctx_switch_period` walk one shared image, each
/// shifted to its own slot, and so do all cells assembled from one set of
/// images. A degenerate mix deduplicates to a single slot-0 placement,
/// which is byte-identical to the homogeneous build.
#[derive(Clone, Debug)]
pub struct CellPrograms {
    cell: CellWorkload,
    slots: Vec<Workload>,
    /// Mix position -> slot index.
    assign: Vec<usize>,
}

impl CellPrograms {
    /// Builds every distinct program in the cell with the given seed, one
    /// image per distinct shape.
    pub fn build(cell: &CellWorkload, seed: u64) -> CellPrograms {
        let images: Vec<Workload> = distinct_shapes([cell])
            .iter()
            .map(|spec| Workload::build(spec, seed))
            .collect();
        CellPrograms::assemble(cell, seed, &images)
    }

    /// Places every distinct program of `cell` from `images`, slot-0
    /// builds such as those of [`distinct_shapes`]: each slot shares the
    /// image of its spec's shape built with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `images` holds no such image for some position of `cell`.
    pub fn assemble(cell: &CellWorkload, seed: u64, images: &[Workload]) -> CellPrograms {
        let cell = cell.canonical();
        let positions = cell.positions();
        let mut fingerprints: Vec<u128> = Vec::new();
        let mut slots: Vec<Workload> = Vec::new();
        let mut assign = Vec::with_capacity(positions.len());
        for spec in positions {
            let fp = spec_fingerprint(spec);
            let slot = match fingerprints.iter().position(|&f| f == fp) {
                Some(i) => i,
                None => {
                    let shape = shape_fingerprint(spec);
                    let image = images
                        .iter()
                        .find(|w| w.seed == seed && shape_fingerprint(&w.spec) == shape)
                        .unwrap_or_else(|| panic!("no image of {} at seed {seed}", spec.name));
                    fingerprints.push(fp);
                    slots.push(image.placed(spec, slots.len()));
                    slots.len() - 1
                }
            };
            assign.push(slot);
        }
        CellPrograms {
            cell,
            slots,
            assign,
        }
    }

    /// The (canonicalized) cell this was built from.
    pub fn cell(&self) -> &CellWorkload {
        &self.cell
    }

    /// The distinct built programs, in slot order.
    pub fn slots(&self) -> &[Workload] {
        &self.slots
    }

    /// The workload core `core` executes.
    pub fn workload_for_core(&self, core: usize) -> &Workload {
        &self.slots[self.assign[core % self.assign.len()]]
    }

    /// The committed-instruction-stream iterator for one core. Seeds are
    /// decorrelated per core exactly as [`Workload::walker`] does, so a
    /// homogeneous cell's streams match the legacy engine byte for byte.
    pub fn walker(&self, core: usize) -> Walker<'_> {
        self.workload_for_core(core).walker(core)
    }
}

/// Samples a pool of shared functions *without replacement* (reshuffling
/// when exhausted). Uniform with-replacement sampling would revisit the
/// same function at mid-range distances where its L1 residency is flaky
/// (sometimes hit, sometimes miss), fragmenting recurring miss sequences;
/// real call paths do not have that property, and neither should ours.
struct SharedSampler {
    order: Vec<FuncId>,
    pos: usize,
}

impl SharedSampler {
    fn new(pool: &[FuncId], rng: &mut SmallRng) -> SharedSampler {
        let mut order = pool.to_vec();
        shuffle(&mut order, rng);
        SharedSampler { order, pos: 0 }
    }

    fn next(&mut self, rng: &mut SmallRng) -> Option<FuncId> {
        if self.order.is_empty() {
            return None;
        }
        if self.pos >= self.order.len() {
            shuffle(&mut self.order, rng);
            self.pos = 0;
        }
        let f = self.order[self.pos];
        self.pos += 1;
        Some(f)
    }
}

fn shuffle(v: &mut [FuncId], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Internal generator state.
struct Builder {
    spec: WorkloadSpec,
    seed: u64,
    rng: SmallRng,
    /// The program image, appended to as each function is generated.
    image: ImageBuilder,
    cursor: u64,
}

impl Builder {
    fn new(spec: WorkloadSpec, seed: u64) -> Builder {
        let rng = SmallRng::seed_from_u64(seed ^ spec.seed_salt);
        Builder {
            spec,
            seed,
            rng,
            image: ImageBuilder::new(),
            cursor: TEXT_BASE,
        }
    }

    /// Reserves an address range for `ops` and appends the function to
    /// the image.
    fn add_function(&mut self, ops: Vec<StaticOp>) -> FuncId {
        let base = Addr(self.cursor);
        self.cursor += ops.len() as u64 * 4;
        // Random padding (multiple of 4 B) so block alignments vary.
        self.cursor += 4 * self.rng.gen_range(0..16u64);
        self.image.push(base, &ops)
    }

    /// Emits a function body made of straight runs, small hammocks, and
    /// possibly an innermost loop; optional calls to pool functions.
    fn gen_body(&mut self, target_instrs: u32, callees: &[FuncId]) -> Vec<StaticOp> {
        // A body overshoots its target by at most one hammock or loop, a
        // call and the return; reserving that up front spares the
        // builder its regrowth (a longer body would only reallocate).
        let mut b = FunctionBuilder::with_capacity(target_instrs as usize + 16);
        let mut emitted = 0u32;
        let mut callee_iter = callees.iter();
        let with_loop = self.rng.gen_bool(self.spec.inner_loop_prob);
        let loop_at = if with_loop {
            self.rng.gen_range(0..target_instrs.max(1))
        } else {
            u32::MAX
        };
        while emitted < target_instrs {
            // A straight run with interspersed loads/stores.
            let run = self
                .rng
                .gen_range(4..=self.spec.hammock_period.max(5))
                .min(target_instrs - emitted + 4);
            let mem = match self.rng.gen_range(0..3) {
                0 => PlainMem::Load,
                1 => PlainMem::Store,
                _ => PlainMem::None,
            };
            b.straight(run, mem);
            emitted += run;

            if emitted >= loop_at && with_loop && emitted < target_instrs {
                // Innermost loop: tight body, geometric iterations.
                let body = self.rng.gen_range(4..=10);
                let l = b.begin_loop();
                b.straight(body, PlainMem::Load);
                b.end_loop(l, self.spec.avg_loop_iters.max(1.5), true);
                emitted += body + 1;
            } else if emitted < target_instrs {
                // Small hammock: arm < 16 instructions, so branch outcomes
                // never change the block-level fetch sequence.
                let arm = self.rng.gen_range(2..=10);
                let skip_prob = if self.rng.gen_bool(self.spec.data_dep_frac) {
                    self.rng.gen_range(0.35..0.65)
                } else if self.rng.gen_bool(0.5) {
                    0.92
                } else {
                    0.08
                };
                b.hammock(arm, skip_prob, PlainMem::Load);
                emitted += arm + 1;
            }

            if let Some(&c) = callee_iter.next() {
                b.call(c);
                emitted += 1;
            }
        }
        b.finish()
    }

    /// Generates a pool of leaf functions.
    fn gen_pool(&mut self, count: usize) -> Vec<FuncId> {
        let (lo, hi) = self.spec.func_instrs;
        (0..count)
            .map(|_| {
                let n = self.rng.gen_range(lo..=hi);
                let ops = self.gen_body(n, &[]);
                self.add_function(ops)
            })
            .collect()
    }

    /// Generates a path function that may call one or two shared helpers.
    fn gen_path_func(&mut self, sampler: &mut SharedSampler) -> FuncId {
        let (lo, hi) = self.spec.func_instrs;
        let n = self.rng.gen_range(lo..=hi);
        let mut callees = Vec::new();
        for _ in 0..self.rng.gen_range(0..=2u32) {
            if let Some(f) = sampler.next(&mut self.rng) {
                callees.push(f);
            }
        }
        let ops = self.gen_body(n, &callees);
        self.add_function(ops)
    }

    /// Generates one transaction type: exclusive path functions, divergence
    /// variants, and the driver that strings them together.
    fn gen_transaction(&mut self, shared: &[FuncId]) -> FuncId {
        #[derive(Clone)]
        enum Site {
            Direct(FuncId),
            Indirect(Vec<FuncId>),
            BigHammockOver(FuncId),
        }
        let mut sampler = SharedSampler::new(shared, &mut self.rng);
        let mut sites: Vec<Site> = Vec::with_capacity(self.spec.path_len);
        for i in 0..self.spec.path_len {
            let divergent =
                self.spec.divergence_every > 0 && (i + 1) % self.spec.divergence_every == 0;
            if divergent {
                if i % (2 * self.spec.divergence_every) == self.spec.divergence_every - 1 {
                    // Data-dependent indirect call with fresh variants.
                    let variants: Vec<FuncId> = (0..self.spec.n_variants)
                        .map(|_| self.gen_path_func(&mut sampler))
                        .collect();
                    sites.push(Site::Indirect(variants));
                } else {
                    // Data-dependent large hammock skipping a whole callee.
                    let f = self.gen_path_func(&mut sampler);
                    sites.push(Site::BigHammockOver(f));
                }
            } else if self.spec.shared_frac > 0.0 && self.rng.gen_bool(self.spec.shared_frac) {
                match sampler.next(&mut self.rng) {
                    Some(f) => sites.push(Site::Direct(f)),
                    None => {
                        let f = self.gen_path_func(&mut sampler);
                        sites.push(Site::Direct(f));
                    }
                }
            } else {
                let f = self.gen_path_func(&mut sampler);
                sites.push(Site::Direct(f));
            }
        }

        // The driver: per call site, a little glue (straight run + small
        // hammock), an optional scan loop (DSS), then the call.
        let mut b = FunctionBuilder::new();
        for site in &sites {
            let glue = self.rng.gen_range(2..8);
            b.straight(glue, PlainMem::Load);
            if self.spec.scan_loops {
                let l = b.begin_loop();
                b.straight(self.rng.gen_range(5..=9), PlainMem::Load);
                b.end_loop(l, self.spec.scan_iters.max(1.5), true);
            }
            match site {
                Site::Direct(f) => {
                    b.call(*f);
                }
                Site::Indirect(vs) => {
                    b.call_indirect(vs.clone());
                }
                Site::BigHammockOver(f) => {
                    // Conditional branch skipping the call entirely: a
                    // re-convergent hammock at whole-function granularity.
                    // Arm = 1 call + 2 glue instructions = 3 ops; the taken
                    // target re-converges just past them.
                    let branch_idx = b.len() as u32;
                    b.cond_branch_to(branch_idx + 4, 0.5);
                    b.call(*f);
                    b.straight(2, PlainMem::None);
                }
            }
        }
        let ops = b.finish();
        self.add_function(ops)
    }

    /// Generates the whole program at slot 0.
    fn build(mut self) -> Workload {
        let shared = self.gen_pool(self.spec.shared_pool);

        let mut entries = Vec::new();
        for t in 0..self.spec.n_txn_types {
            let driver = self.gen_transaction(&shared);
            // Zipf-flavoured weights: earlier types are hotter.
            let w = 1.0 / (1.0 + t as f64 * 0.45);
            entries.push((driver, w));
        }

        let cold_entries = self.gen_pool(self.spec.cold_pool);
        let trap_handlers = self.gen_pool(self.spec.n_trap_handlers);

        let program = self.image.finish();
        let mix = TransactionMix {
            entries,
            cold_entries,
            cold_prob: self.spec.cold_prob,
        };
        // An idle quantum roughly matches one transaction's instruction
        // count, so a core at duty cycle d retires the same quota while
        // generating ~d of the fetch-miss demand.
        let mean_func = u64::from(self.spec.func_instrs.0 + self.spec.func_instrs.1) / 2;
        let idle_quantum = (self.spec.path_len as u64 * mean_func.max(1)).max(16);
        let exec = ExecConfig {
            trap_period: self.spec.trap_period,
            trap_handlers,
            max_stack: 64,
            data: self.spec.data,
            duty_cycle: self.spec.duty_cycle,
            idle_quantum,
            ctx_switch_period: self.spec.ctx_switch_period,
        };
        Workload {
            program,
            mix,
            exec,
            spec: self.spec,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchKind;

    #[test]
    fn tiny_workload_builds_and_runs() {
        let w = Workload::build(&WorkloadSpec::tiny_test(), 1);
        let records: Vec<_> = w.walker(0).take(50_000).collect();
        assert_eq!(records.len(), 50_000);
        // Control flow must include calls, returns, conditionals.
        for kind in [
            BranchKind::Call,
            BranchKind::Return,
            BranchKind::Conditional,
        ] {
            assert!(
                records
                    .iter()
                    .any(|r| matches!(r.branch, Some(b) if b.kind == kind)),
                "missing {kind:?}"
            );
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let a = Workload::build(&WorkloadSpec::tiny_test(), 42);
        let b = Workload::build(&WorkloadSpec::tiny_test(), 42);
        let ra: Vec<_> = a.walker(0).take(10_000).collect();
        let rb: Vec<_> = b.walker(0).take(10_000).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn cores_decorrelated_but_same_program() {
        let w = Workload::build(&WorkloadSpec::tiny_test(), 42);
        let r0: Vec<_> = w.walker(0).take(5_000).collect();
        let r1: Vec<_> = w.walker(1).take(5_000).collect();
        assert_ne!(r0, r1);
        // Both execute the same image.
        assert!(r1.iter().all(|r| w.program.decode(r.pc).is_some()));
    }

    #[test]
    fn footprints_ordered_by_class() {
        // OLTP > Web > DSS, and OLTP must dwarf the 64 KB L1-I.
        let seed = 7;
        let oltp = Workload::build(&WorkloadSpec::oltp_oracle(), seed);
        let web = Workload::build(&WorkloadSpec::web_apache(), seed);
        let dss = Workload::build(&WorkloadSpec::dss_qry17(), seed);
        let (o, w, d) = (
            oltp.program.text_bytes(),
            web.program.text_bytes(),
            dss.program.text_bytes(),
        );
        assert!(o > w && w > d, "footprints: oltp={o} web={w} dss={d}");
        assert!(o > 1_000_000, "OLTP footprint {o} should exceed 1 MB");
        assert!(d < 500_000, "DSS footprint {d} should be small");
    }

    #[test]
    fn control_flow_consistent_on_real_workload() {
        let w = Workload::build(&WorkloadSpec::web_zeus(), 3);
        let records: Vec<_> = w.walker(0).take(100_000).collect();
        for pair in records.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a.trap {
                continue;
            }
            let expected = match a.branch {
                Some(br) if br.taken => br.target,
                _ => a.fall_through(),
            };
            assert_eq!(b.pc, expected);
        }
    }

    #[test]
    fn all_six_build() {
        for spec in WorkloadSpec::all_six() {
            let w = Workload::build(&spec, 1);
            assert!(w.program.text_bytes() > 0, "{}", spec.name);
            let n: usize = w.walker(0).take(1000).count();
            assert_eq!(n, 1000, "{}", spec.name);
        }
    }
}
