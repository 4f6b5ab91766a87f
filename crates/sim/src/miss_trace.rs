//! Functional (timing-free) instruction-fetch model for trace collection.
//!
//! The paper's opportunity analyses (Figures 3, 5, 6, 10, 11) operate on
//! traces of L1-I *misses*: fetches not satisfied by the L1 instruction
//! cache or the next-line prefetcher (paper Section 4.1). This module
//! replays an instruction stream through a 64 KB 2-way L1-I with a
//! continually-running next-line prefetcher and records the miss sequence.

use tifs_trace::{Addr, BlockAddr, FetchRecord};

use crate::cache::SetAssocCache;
use crate::config::SystemConfig;

/// Functional L1-I + next-line prefetcher.
#[derive(Clone, Debug)]
pub struct FunctionalFetchModel {
    l1i: SetAssocCache,
    next_line_depth: u64,
    last_block: Option<BlockAddr>,
    accesses: u64,
    misses: u64,
}

impl FunctionalFetchModel {
    /// Builds the model from a system configuration.
    pub fn new(cfg: &SystemConfig) -> FunctionalFetchModel {
        FunctionalFetchModel {
            l1i: SetAssocCache::new(cfg.l1i_bytes, cfg.l1i_ways),
            next_line_depth: cfg.next_line_depth,
            last_block: None,
            accesses: 0,
            misses: 0,
        }
    }

    /// Feeds one instruction; returns `Some(block)` if its fetch was a
    /// miss (a new block transition not covered by L1 or next-line).
    pub fn access_pc(&mut self, pc: Addr) -> Option<BlockAddr> {
        let mut miss = None;
        self.access_run(pc, 1, |block| miss = Some(block));
        miss
    }

    /// Feeds `len` instructions at consecutive PCs from `pc`, stepping
    /// the L1-I once per block they enter, and calls `on_miss` with each
    /// block whose fetch missed, in order. The same as [`access_pc`] on
    /// each PC in turn.
    ///
    /// [`access_pc`]: Self::access_pc
    pub fn access_run(&mut self, pc: Addr, len: u64, mut on_miss: impl FnMut(BlockAddr)) {
        if len == 0 {
            return;
        }
        let first = pc.block();
        let last = pc.add_instrs(len - 1).block();
        let from = if self.last_block == Some(first) {
            first.next()
        } else {
            first
        };
        for b in from.0..=last.0 {
            let block = BlockAddr(b);
            if self.access_block(block) {
                on_miss(block);
            }
        }
        self.last_block = Some(last);
    }

    /// Performs one block-transition access; returns `true` on a miss.
    pub fn access_block(&mut self, block: BlockAddr) -> bool {
        self.accesses += 1;
        let hit = self.l1i.access(block);
        // Fill the demanded block and the next-line prefetches.
        self.l1i.insert(block);
        for d in 1..=self.next_line_depth {
            self.l1i.insert(block.offset(d));
        }
        if !hit {
            self.misses += 1;
        }
        !hit
    }

    /// (block transitions, misses) so far.
    pub fn totals(&self) -> (u64, u64) {
        (self.accesses, self.misses)
    }

    /// Miss rate over block transitions.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Replays `records` and collects the L1-I miss-address trace.
pub fn miss_trace<I>(records: I, cfg: &SystemConfig) -> Vec<BlockAddr>
where
    I: IntoIterator<Item = FetchRecord>,
{
    miss_trace_with_model(records, cfg).0
}

/// As [`miss_trace`], but also returns the model for rate inspection.
pub fn miss_trace_with_model<I>(
    records: I,
    cfg: &SystemConfig,
) -> (Vec<BlockAddr>, FunctionalFetchModel)
where
    I: IntoIterator<Item = FetchRecord>,
{
    let mut model = FunctionalFetchModel::new(cfg);
    let mut out = Vec::new();
    for r in records {
        if let Some(b) = model.access_pc(r.pc) {
            out.push(b);
        }
    }
    (out, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::table2()
    }

    fn pc_of_block(b: u64) -> Addr {
        Addr(b * 64)
    }

    #[test]
    fn sequential_run_misses_once() {
        // A long sequential run: only the first block misses; next-line
        // covers the rest.
        let mut m = FunctionalFetchModel::new(&cfg());
        assert!(m.access_block(BlockAddr(100)));
        for b in 101..150 {
            assert!(
                !m.access_block(BlockAddr(b)),
                "block {b} covered by next-line"
            );
        }
    }

    #[test]
    fn discontinuity_misses() {
        let mut m = FunctionalFetchModel::new(&cfg());
        m.access_block(BlockAddr(100));
        assert!(m.access_block(BlockAddr(5000)), "cold discontinuity target");
        assert!(!m.access_block(BlockAddr(100)), "warm return target");
    }

    #[test]
    fn capacity_misses_on_large_working_set() {
        // Working set far exceeding 64 KB (1024 blocks): revisits miss.
        let mut m = FunctionalFetchModel::new(&cfg());
        // Touch 4096 distinct blocks, strided to avoid next-line coverage.
        for i in 0..4096u64 {
            m.access_block(BlockAddr(i * 16));
        }
        let (_, misses_first) = m.totals();
        assert_eq!(misses_first, 4096);
        // Second pass still misses: the set long since evicted.
        for i in 0..4096u64 {
            assert!(m.access_block(BlockAddr(i * 16)));
        }
    }

    #[test]
    fn small_working_set_is_resident() {
        // Stride 5 exceeds the next-line depth (4), so each access misses
        // on the first pass; the touched region (blocks 0..504 including
        // fills) maps one block per set and stays fully resident after.
        let mut m = FunctionalFetchModel::new(&cfg());
        for _ in 0..10 {
            for i in 0..100u64 {
                m.access_block(BlockAddr(i * 5));
            }
        }
        let (acc, miss) = m.totals();
        assert_eq!(acc, 1000);
        assert_eq!(miss, 100, "only the first pass misses");
    }

    #[test]
    fn pc_level_collapses_within_block() {
        let mut m = FunctionalFetchModel::new(&cfg());
        assert!(m.access_pc(pc_of_block(7)).is_some());
        assert!(m.access_pc(Addr(7 * 64 + 4)).is_none(), "same block");
        assert!(m.access_pc(Addr(7 * 64 + 60)).is_none());
        let (acc, _) = m.totals();
        assert_eq!(acc, 1);
    }

    #[test]
    fn access_run_is_access_pc_per_instruction() {
        // Runs that start mid-block, in the block the last run ended in,
        // at a block's last instruction, and across several blocks.
        let runs = [
            (0x1000, 3),
            (0x100c, 20),
            (0x105c, 1),
            (0x1060, 40),
            (0x8000, 16),
            (0x1000, 0),
            (0x803c, 2),
            (0x1004, 5),
        ];
        let mut by_run = FunctionalFetchModel::new(&cfg());
        let mut by_pc = FunctionalFetchModel::new(&cfg());
        for (pc, len) in runs {
            let mut misses = Vec::new();
            by_run.access_run(Addr(pc), len, |b| misses.push(b));
            let expected: Vec<BlockAddr> = (0..len)
                .filter_map(|i| by_pc.access_pc(Addr(pc).add_instrs(i)))
                .collect();
            assert_eq!(misses, expected, "run of {len} at {pc:#x}");
            assert_eq!(by_run.totals(), by_pc.totals(), "run of {len} at {pc:#x}");
        }
    }

    #[test]
    fn miss_trace_end_to_end() {
        use tifs_trace::workload::{Workload, WorkloadSpec};
        let w = Workload::build(&WorkloadSpec::tiny_test(), 9);
        let records: Vec<_> = w.walker(0).take(100_000).collect();
        let (trace, model) = miss_trace_with_model(records, &cfg());
        // The tiny workload fits in L1 after warmup, so misses are rare but
        // must exist (cold paths + traps).
        assert!(!trace.is_empty());
        assert!(model.miss_rate() < 0.5);
    }
}
