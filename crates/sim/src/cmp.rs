//! The four-core CMP harness: cores, shared L2, and the prefetcher under
//! evaluation, stepped cycle by cycle.

use tifs_trace::{BlockAddr, FetchRecord};

use crate::config::SystemConfig;
use crate::core::Core;
use crate::l2::L2;
use crate::prefetch::{IPrefetcher, PrefetchCtx};
use crate::stats::SimReport;

/// The chip multiprocessor under simulation.
///
/// # Example
///
/// ```
/// use tifs_sim::cmp::Cmp;
/// use tifs_sim::config::SystemConfig;
/// use tifs_sim::prefetch::NullPrefetcher;
/// use tifs_trace::workload::{Workload, WorkloadSpec};
///
/// let workload = Workload::build(&WorkloadSpec::tiny_test(), 1);
/// let cfg = SystemConfig::single_core();
/// let streams: Vec<_> = (0..cfg.num_cores)
///     .map(|c| Box::new(workload.walker(c)) as Box<dyn Iterator<Item = _>>)
///     .collect();
/// let mut cmp = Cmp::new(cfg, streams, Box::new(NullPrefetcher));
/// let report = cmp.run(20_000);
/// assert_eq!(report.total_retired(), 20_000);
/// assert!(report.aggregate_ipc() > 0.0);
/// ```
pub struct Cmp<'a> {
    cores: Vec<Core<'a>>,
    l2: L2,
    pf: Box<dyn IPrefetcher + 'a>,
    now: u64,
    /// Reused eviction-delivery buffer (see [`Cmp::tick`]).
    evict_scratch: Vec<BlockAddr>,
}

impl<'a> Cmp<'a> {
    /// Builds a CMP over per-core instruction streams and one prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if the number of streams differs from `cfg.num_cores`.
    pub fn new(
        cfg: SystemConfig,
        streams: Vec<Box<dyn Iterator<Item = FetchRecord> + 'a>>,
        pf: Box<dyn IPrefetcher + 'a>,
    ) -> Cmp<'a> {
        assert_eq!(
            streams.len(),
            cfg.num_cores,
            "one instruction stream per core"
        );
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(id, s)| Core::new(id, &cfg, s, u64::MAX))
            .collect();
        Cmp {
            cores,
            l2: L2::new(&cfg),
            pf,
            now: 0,
            evict_scratch: Vec::new(),
        }
    }

    /// Runs until every core has retired `instructions_per_core`
    /// instructions, then reports.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds a generous cycle budget
    /// (1000 cycles per instruction), which indicates a deadlock bug.
    pub fn run(&mut self, instructions_per_core: u64) -> SimReport {
        let start_cycle = self.now;
        for core in &mut self.cores {
            let quota = core.retired() + instructions_per_core;
            core.set_quota(quota);
        }
        let budget = start_cycle + instructions_per_core.saturating_mul(1000).max(1_000_000);
        while !self.cores.iter().all(Core::finished) {
            self.tick();
            assert!(
                self.now < budget,
                "simulation exceeded cycle budget at cycle {} — deadlock?",
                self.now
            );
        }
        self.report()
    }

    /// Runs a warmup phase (training caches, predictors, and TIFS logs),
    /// discards its statistics, then measures `measure_per_core`
    /// instructions. This mirrors the paper's warmed-cache methodology —
    /// compulsory misses are not what TIFS targets.
    pub fn run_with_warmup(&mut self, warmup_per_core: u64, measure_per_core: u64) -> SimReport {
        if warmup_per_core > 0 {
            self.run(warmup_per_core);
            let now = self.now;
            for core in &mut self.cores {
                core.reset_stats(now);
            }
            self.l2.reset_stats();
            self.pf.reset_counters();
        }
        // `cycles` covers only the measured window: per-core counters are
        // already epoch-relative, and charging the warmup phase here too
        // would deflate every report-level cycles/IPC figure.
        let measure_start = self.now;
        let mut report = self.run(measure_per_core);
        report.cycles = self.now - measure_start;
        report
    }

    /// Advances the whole system one cycle.
    ///
    /// Cores are stepped in fixed ascending core order, and the
    /// prefetcher tick follows them, every cycle. Shared structures that
    /// arbitrate between cores within a cycle (the L2 banks, and the
    /// shared-metadata ports of [`MetadataPorts`](crate::metadata::MetadataPorts))
    /// inherit that order as their arbitration order, which is what keeps
    /// contended runs bit-reproducible at any host thread count.
    pub fn tick(&mut self) {
        for core in &mut self.cores {
            core.tick(self.now, &mut self.l2, self.pf.as_mut());
        }
        // Deliver evictions raised by this cycle's core requests *before*
        // the prefetcher tick: Index-Table invalidations must not lag the
        // evicting access, or the prefetcher acts on stale residency.
        self.deliver_evictions();
        {
            let mut ctx = PrefetchCtx {
                now: self.now,
                core: usize::MAX,
                l2: &mut self.l2,
            };
            self.pf.tick(&mut ctx);
        }
        // The prefetcher's own requests can evict too.
        self.deliver_evictions();
        self.now += 1;
    }

    /// Hands this cycle's L2 evictions to the prefetcher in raise order,
    /// recycling one scratch buffer so eviction-bearing cycles don't
    /// allocate.
    fn deliver_evictions(&mut self) {
        self.l2.swap_evictions(&mut self.evict_scratch);
        for i in 0..self.evict_scratch.len() {
            self.pf.on_l2_evict(self.evict_scratch[i]);
        }
        self.evict_scratch.clear();
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Builds the report for the run so far.
    pub fn report(&self) -> SimReport {
        SimReport {
            cores: self.cores.iter().map(|c| c.stats().clone()).collect(),
            l2: self.l2.stats().clone(),
            cycles: self.now,
            prefetcher: self.pf.counters(),
        }
    }
}

impl std::fmt::Debug for Cmp<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cmp")
            .field("now", &self.now)
            .field("cores", &self.cores.len())
            .field("prefetcher", &self.pf.name())
            .finish()
    }
}
