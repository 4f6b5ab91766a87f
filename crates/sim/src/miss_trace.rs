//! Functional (timing-free) instruction-fetch model for trace collection.
//!
//! The paper's opportunity analyses (Figures 3, 5, 6, 10, 11) operate on
//! traces of L1-I *misses*: fetches not satisfied by the L1 instruction
//! cache or the next-line prefetcher (paper Section 4.1). This module
//! replays an instruction stream through a 64 KB 2-way L1-I with a
//! continually-running next-line prefetcher and records the miss sequence.
//!
//! The same model is the L1 view of the TIFS and FDIP timing prefetchers:
//! each keeps one per core, [`fill`](FunctionalFetchModel::fill)s it on
//! every fetched block, and probes it with
//! [`holds`](FunctionalFetchModel::holds) before issuing a prefetch (the
//! paper grants both unlimited L1 tag-port bandwidth for these probes).

use tifs_trace::{Addr, BlockAddr, FetchRecord};

use crate::cache::SetAssocCache;
use crate::config::SystemConfig;

/// Functional L1-I + next-line prefetcher: the miss-trace model, and the
/// residency probe of the TIFS and FDIP prefetchers.
#[derive(Clone, Debug)]
pub struct FunctionalFetchModel {
    l1i: SetAssocCache,
    next_line_depth: u64,
    last_block: Option<BlockAddr>,
    /// The block the last [`fill`](Self::fill) started at. That fill
    /// left it and the `next_line_depth` blocks after it at MRU, each in
    /// a set of its own, and nothing has touched the L1-I since.
    last_fill: Option<BlockAddr>,
    accesses: u64,
    misses: u64,
}

impl FunctionalFetchModel {
    /// Builds the model from a system configuration.
    ///
    /// # Panics
    ///
    /// Panics unless the L1-I has more sets than `next_line_depth`, so
    /// that one fill's blocks all lie in different sets.
    pub fn new(cfg: &SystemConfig) -> FunctionalFetchModel {
        let l1i = SetAssocCache::new(cfg.l1i_bytes, cfg.l1i_ways);
        assert!(
            l1i.num_sets() as u64 > cfg.next_line_depth,
            "a fill of {} blocks needs as many sets, the L1-I has {}",
            cfg.next_line_depth + 1,
            l1i.num_sets()
        );
        FunctionalFetchModel {
            l1i,
            next_line_depth: cfg.next_line_depth,
            last_block: None,
            last_fill: None,
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
    #[inline]
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
    #[inline]
    pub fn access_block(&mut self, block: BlockAddr) -> bool {
        self.accesses += 1;
        // A hit promotes `block` to MRU, where `fill` finds it again. A
        // block that follows the last fill's start is at MRU already.
        let hit = self.follows_last_fill(block) || self.l1i.access(block);
        self.fill(block);
        if !hit {
            self.misses += 1;
        }
        !hit
    }

    /// Fills the demanded `block` and its next-line prefetches, `block`
    /// through `block + next_line_depth`, without counting an access.
    ///
    /// A fill of the block after the last fill's start inserts only
    /// `block + next_line_depth`: the last fill left the blocks before it
    /// at MRU, where inserting them again changes nothing.
    #[inline]
    pub fn fill(&mut self, block: BlockAddr) {
        if self.follows_last_fill(block) {
            self.l1i.insert(block.offset(self.next_line_depth));
        } else {
            for d in 0..=self.next_line_depth {
                self.l1i.insert(block.offset(d));
            }
        }
        self.last_fill = Some(block);
    }

    /// Whether the last fill left `block` through
    /// `block + next_line_depth - 1` at MRU: `block` is the one after the
    /// block that fill started at, and the fill reached past its start.
    #[inline]
    fn follows_last_fill(&self, block: BlockAddr) -> bool {
        self.next_line_depth > 0 && self.last_fill.is_some_and(|f| f.next() == block)
    }

    /// Whether the L1-I holds `block` (a tag probe: no LRU update).
    #[inline]
    pub fn holds(&self, block: BlockAddr) -> bool {
        self.l1i.peek(block)
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
    use proptest::prelude::*;

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

    /// The model without the sequential fill: every access probes the
    /// L1-I and inserts all `next_line_depth + 1` blocks, and a run steps
    /// one instruction at a time.
    struct Reference {
        l1i: SetAssocCache,
        next_line_depth: u64,
        last_block: Option<BlockAddr>,
        accesses: u64,
        misses: u64,
    }

    impl Reference {
        fn new(cfg: &SystemConfig) -> Reference {
            Reference {
                l1i: SetAssocCache::new(cfg.l1i_bytes, cfg.l1i_ways),
                next_line_depth: cfg.next_line_depth,
                last_block: None,
                accesses: 0,
                misses: 0,
            }
        }

        fn access_block(&mut self, block: BlockAddr) -> bool {
            self.accesses += 1;
            let hit = self.l1i.access(block);
            self.fill(block);
            self.misses += u64::from(!hit);
            !hit
        }

        fn fill(&mut self, block: BlockAddr) {
            for d in 0..=self.next_line_depth {
                self.l1i.insert(block.offset(d));
            }
        }

        fn access_run(&mut self, pc: Addr, len: u64) -> Vec<BlockAddr> {
            let mut misses = Vec::new();
            for i in 0..len {
                let block = pc.add_instrs(i).block();
                if self.last_block != Some(block) && self.access_block(block) {
                    misses.push(block);
                }
                self.last_block = Some(block);
            }
            misses
        }
    }

    /// `(l1i_bytes, l1i_ways, next_line_depth)`: Table II; small caches
    /// that evict often; one whose fill covers every set; no next line.
    const GEOMETRIES: [(usize, usize, u64); 5] = [
        (64 * 1024, 2, 4),
        (2 * 1024, 2, 4),
        (4 * 1024, 4, 1),
        (1024, 1, 15),
        (2 * 1024, 2, 0),
    ];

    proptest! {
        /// The sequential fill is exact: the model and a reference that
        /// never takes it agree on every miss, count, probe and resident
        /// block, under sequential stretches, jumps and revisits through
        /// interleaved runs, block accesses and bare fills.
        #[test]
        fn sequential_fills_match_full_fills(
            geometry in 0usize..GEOMETRIES.len(),
            calls in prop::collection::vec((0u8..3, 0u8..8, 0u64..1 << 20, 0u64..48), 1..400),
        ) {
            let (l1i_bytes, l1i_ways, next_line_depth) = GEOMETRIES[geometry];
            let cfg = SystemConfig { l1i_bytes, l1i_ways, next_line_depth, ..cfg() };
            let mut model = FunctionalFetchModel::new(&cfg);
            let mut reference = Reference::new(&cfg);
            // Jumps land within four cache capacities, so sets conflict.
            let span = 4 * (l1i_bytes as u64 / 64);
            let (mut cursor, mut visited) = (0u64, Vec::new());
            for (n, &(call, moves, arg, len)) in calls.iter().enumerate() {
                cursor = match moves {
                    0..=4 => cursor + 1,
                    5 => cursor,
                    6 => arg % span,
                    _ if visited.is_empty() => arg % span,
                    _ => visited[arg as usize % visited.len()],
                };
                visited.push(cursor);
                let block = BlockAddr(cursor);
                match call {
                    0 => {
                        let pc = Addr(cursor * 64 + (arg % 16) * 4);
                        let mut misses = Vec::new();
                        model.access_run(pc, len, |b| misses.push(b));
                        prop_assert_eq!(misses, reference.access_run(pc, len), "call {}", n);
                        if len > 0 {
                            cursor = pc.add_instrs(len - 1).block().0;
                        }
                    }
                    1 => prop_assert_eq!(
                        model.access_block(block),
                        reference.access_block(block),
                        "call {}", n
                    ),
                    _ => {
                        model.fill(block);
                        reference.fill(block);
                    }
                }
                prop_assert_eq!(model.totals(), (reference.accesses, reference.misses));
                for b in cursor.saturating_sub(1)..=cursor + next_line_depth + 1 {
                    let b = BlockAddr(b);
                    prop_assert_eq!(model.holds(b), reference.l1i.peek(b), "call {}, {:?}", n, b);
                }
            }
            prop_assert_eq!(model.l1i.resident_blocks(), reference.l1i.resident_blocks());
            prop_assert_eq!(model.l1i.churn(), reference.l1i.churn());
        }
    }

    #[test]
    #[should_panic(expected = "needs as many sets")]
    fn fill_wider_than_the_sets_is_refused() {
        let cfg = SystemConfig {
            l1i_bytes: 1024,
            l1i_ways: 1,
            next_line_depth: 16,
            ..cfg()
        };
        FunctionalFetchModel::new(&cfg);
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
