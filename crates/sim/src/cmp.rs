//! The four-core CMP harness: cores, shared L2, and the prefetcher under
//! evaluation, stepped cycle by cycle.

use tifs_trace::{BlockAddr, FetchRecord};

use crate::config::SystemConfig;
use crate::core::Core;
use crate::l2::L2;
use crate::prefetch::{IPrefetcher, PrefetchCtx};
use crate::stats::SimReport;

/// The chip multiprocessor under simulation, its cores replaying streams
/// of type `S`.
///
/// The experiments run `Cmp<Walker>`, so each core's fetch calls the
/// walker directly. The boxed default takes any stream: test probes and
/// wrappers that trace a walker.
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
pub struct Cmp<'a, S = Box<dyn Iterator<Item = FetchRecord> + 'a>> {
    cores: Vec<Core<S>>,
    l2: L2,
    pf: Box<dyn IPrefetcher + 'a>,
    now: u64,
    /// Reused eviction-delivery buffer (see [`Cmp::tick`]).
    evict_scratch: Vec<BlockAddr>,
    /// Core ticks the wake gate skipped.
    #[cfg(test)]
    skipped: u64,
}

impl<'a, S: Iterator<Item = FetchRecord>> Cmp<'a, S> {
    /// Builds a CMP over per-core instruction streams and one prefetcher.
    /// It asks the prefetcher once whether it observes every fetched
    /// instruction ([`IPrefetcher::observes_instructions`]).
    ///
    /// # Panics
    ///
    /// Panics if the number of streams differs from `cfg.num_cores`.
    pub fn new(cfg: SystemConfig, streams: Vec<S>, pf: Box<dyn IPrefetcher + 'a>) -> Cmp<'a, S> {
        assert_eq!(
            streams.len(),
            cfg.num_cores,
            "one instruction stream per core"
        );
        let observes_instructions = pf.observes_instructions();
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(id, s)| Core::new(id, &cfg, s, u64::MAX, observes_instructions))
            .collect();
        Cmp {
            cores,
            l2: L2::new(&cfg),
            pf,
            now: 0,
            evict_scratch: Vec::new(),
            #[cfg(test)]
            skipped: 0,
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
    ///
    /// A core is skipped until its wake cycle: the ticks before it
    /// would make no request and call no prefetcher hook, so skipping
    /// them leaves that order, and every output, unchanged.
    pub fn tick(&mut self) {
        for core in &mut self.cores {
            if self.now >= core.wake_at() {
                core.tick(self.now, &mut self.l2, self.pf.as_mut());
            } else {
                #[cfg(test)]
                {
                    self.skipped += 1;
                }
            }
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

impl<S> std::fmt::Debug for Cmp<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cmp")
            .field("now", &self.now)
            .field("cores", &self.cores.len())
            .field("prefetcher", &self.pf.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use tifs_trace::workload::{Workload, WorkloadSpec};

    use super::*;
    use crate::prefetch::{FetchKind, NullPrefetcher};

    /// Supplies a third of the blocks it is offered at once and a third
    /// 15 cycles late, so fetch sees timely and late prefetch hits beside
    /// demand misses and next-line waits.
    struct TimelyAndLate;

    impl IPrefetcher for TimelyAndLate {
        fn name(&self) -> &'static str {
            "timely-and-late"
        }

        fn on_block_fetch(
            &mut self,
            ctx: &mut PrefetchCtx<'_>,
            block: BlockAddr,
            kind: FetchKind,
        ) -> Option<u64> {
            match (kind, block.0 % 3) {
                (FetchKind::L1Hit, _) | (_, 0) => None,
                (_, 1) => Some(ctx.now),
                _ => Some(ctx.now + 15),
            }
        }
    }

    fn sum(report: &SimReport, counter: fn(&crate::stats::CoreStats) -> u64) -> u64 {
        report.cores.iter().map(counter).sum()
    }

    /// Skipping a core until its wake cycle, with the per-cycle counters
    /// charged when it goes to sleep, reports exactly what ticking every
    /// core on every cycle reports. Each case also names the counter it
    /// is there to exercise, which must be nonzero.
    #[test]
    fn gated_core_ticks_match_ticking_every_cycle() {
        let mshrs = |n| SystemConfig {
            l2_mshrs: n,
            ..SystemConfig::table2()
        };
        let null = || Box::new(NullPrefetcher) as Box<dyn IPrefetcher>;
        type Case = (
            &'static str,
            WorkloadSpec,
            SystemConfig,
            fn() -> Box<dyn IPrefetcher>,
            fn(&SimReport) -> u64,
        );
        let cases: [Case; 6] = [
            (
                "table2",
                WorkloadSpec::web_zeus(),
                SystemConfig::table2(),
                null,
                |r| sum(r, |c| c.fetch_stall_cycles),
            ),
            ("2 MSHRs", WorkloadSpec::oltp_db2(), mshrs(2), null, |r| {
                r.l2.mshr_rejects
            }),
            ("6 MSHRs", WorkloadSpec::web_zeus(), mshrs(6), null, |r| {
                r.l2.mshr_rejects
            }),
            (
                "ctx-switch",
                WorkloadSpec::web_zeus().with_ctx_switch_period(700),
                SystemConfig::table2(),
                null,
                |r| sum(r, |c| c.refill_cycles),
            ),
            (
                "duty-cycled/ctx-switch",
                WorkloadSpec::oltp_db2()
                    .with_duty_cycle(0.5)
                    .with_ctx_switch_period(2_000),
                SystemConfig::table2(),
                null,
                |r| sum(r, |c| c.refill_cycles),
            ),
            (
                "timely and late",
                WorkloadSpec::oltp_db2(),
                SystemConfig::table2(),
                || Box::new(TimelyAndLate),
                |r| sum(r, |c| c.prefetch_hits),
            ),
        ];
        for (label, spec, sys, pf, exercised) in cases {
            let w = Workload::build(&spec, 7);
            let run = |stay_awake: bool| {
                let streams = (0..sys.num_cores).map(|c| w.walker(c)).collect();
                let mut cmp = Cmp::new(sys.clone(), streams, pf());
                if stay_awake {
                    cmp.cores.iter_mut().for_each(Core::stay_awake);
                }
                let report = cmp.run_with_warmup(2_000, 5_000);
                (report, cmp.skipped)
            };
            let (gated, skipped) = run(false);
            let (reference, none) = run(true);
            assert_eq!(none, 0, "{label}: the reference skipped a tick");
            assert!(
                gated.to_canonical_bytes() == reference.to_canonical_bytes(),
                "{label}: gated report differs from the every-cycle one"
            );
            assert!(skipped > 0, "{label}: the gate never skipped a tick");
            assert!(exercised(&gated) > 0, "{label}: the case exercised nothing");
        }
    }
}
