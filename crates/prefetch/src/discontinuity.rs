//! The discontinuity prefetcher (Spracklen, Chou & Abraham, HPCA 2005 —
//! the paper's reference \[31\]).
//!
//! A table records fetch discontinuities: pairs of (source block, target
//! block) observed when a taken control transfer leaves the sequential
//! fetch sequence. On each fetched block, the table is consulted and, on a
//! match, the discontinuous target is prefetched alongside the sequential
//! path. The paper notes it "can bridge only a single fetch discontinuity"
//! per lookup — this is the structural limitation TIFS removes, and this
//! implementation serves as an extra baseline for the Figure 13
//! comparison.

use tifs_sim::l2::L2ReqKind;
use tifs_sim::prefetch::{FetchKind, IPrefetcher, PrefetchBuffer, PrefetchCtx, BUFFER_BLOCKS};
use tifs_trace::BlockAddr;

/// Discontinuity-table entries (direct-mapped on block address).
const TABLE_ENTRIES: usize = 8192;
/// Sequential blocks prefetched after a discontinuous target.
const TARGET_DEPTH: u64 = 2;

struct DiscCore {
    /// Direct-mapped table: slot -> (source block, target block).
    table: Vec<Option<(BlockAddr, BlockAddr)>>,
    last_block: Option<BlockAddr>,
    /// Prefetched blocks; a hit in it is a supply.
    buffer: PrefetchBuffer,
    issued: u64,
}

impl DiscCore {
    fn new() -> DiscCore {
        DiscCore {
            table: vec![None; TABLE_ENTRIES],
            last_block: None,
            buffer: PrefetchBuffer::new(BUFFER_BLOCKS),
            issued: 0,
        }
    }

    fn slot(&self, block: BlockAddr) -> usize {
        (block.0 as usize) % TABLE_ENTRIES
    }

    fn lookup(&self, block: BlockAddr) -> Option<BlockAddr> {
        match self.table[self.slot(block)] {
            Some((src, dst)) if src == block => Some(dst),
            _ => None,
        }
    }

    fn record(&mut self, src: BlockAddr, dst: BlockAddr) {
        let slot = self.slot(src);
        self.table[slot] = Some((src, dst));
    }
}

/// CMP-wide discontinuity prefetcher (per-core tables, as in \[31\]).
pub struct DiscontinuityPrefetcher {
    cores: Vec<DiscCore>,
}

impl DiscontinuityPrefetcher {
    /// Creates the prefetcher for `num_cores` cores.
    pub fn new(num_cores: usize) -> DiscontinuityPrefetcher {
        DiscontinuityPrefetcher {
            cores: (0..num_cores).map(|_| DiscCore::new()).collect(),
        }
    }
}

impl IPrefetcher for DiscontinuityPrefetcher {
    fn name(&self) -> &'static str {
        "discontinuity"
    }

    fn on_block_fetch(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        block: BlockAddr,
        kind: FetchKind,
    ) -> Option<u64> {
        let core = &mut self.cores[ctx.core];

        // Train: a non-sequential transition is a discontinuity.
        if let Some(prev) = core.last_block {
            if block != prev && !prev.is_sequential_successor(block) {
                core.record(prev, block);
            }
        }
        core.last_block = Some(block);

        // Predict: bridge one discontinuity from the current block.
        if let Some(target) = core.lookup(block) {
            for d in 0..=TARGET_DEPTH {
                let b = target.offset(d);
                if !core.buffer.holds(b) {
                    if let Some(resp) = ctx.l2.request(ctx.now, b, L2ReqKind::IPrefetch, None) {
                        core.buffer.issue(b, resp.ready, ());
                        core.issued += 1;
                    }
                }
            }
        }

        if kind == FetchKind::L1Hit {
            return None;
        }
        let (ready, ()) = core.buffer.take(block)?;
        Some(ready.max(ctx.now))
    }

    fn tick(&mut self, ctx: &mut PrefetchCtx<'_>) {
        for core in &mut self.cores {
            core.buffer.drain(ctx.now);
        }
    }

    fn on_flush(&mut self, ctx: &mut PrefetchCtx<'_>) {
        // The discontinuity table is trained on the outgoing program's
        // transitions; the incoming one must not inherit them (nor its
        // buffered/in-flight blocks, which targeted the old stream).
        let core = &mut self.cores[ctx.core];
        core.table.iter_mut().for_each(|slot| *slot = None);
        core.last_block = None;
        core.buffer.clear();
    }

    fn reset_counters(&mut self) {
        for c in &mut self.cores {
            c.issued = 0;
            c.buffer.reset_counters();
        }
    }

    fn counters(&self) -> Vec<(String, f64)> {
        let issued: u64 = self.cores.iter().map(|c| c.issued).sum();
        let supplied: u64 = self.cores.iter().map(|c| c.buffer.hits()).sum();
        let discards: u64 = self.cores.iter().map(|c| c.buffer.discards()).sum();
        vec![
            ("issued".into(), issued as f64),
            ("supplied".into(), supplied as f64),
            ("discards".into(), discards as f64),
        ]
    }
}

impl std::fmt::Debug for DiscontinuityPrefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiscontinuityPrefetcher")
            .field("cores", &self.cores.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifs_sim::config::SystemConfig;
    use tifs_sim::l2::L2;

    #[test]
    fn learns_and_bridges_discontinuities() {
        let mut l2 = L2::new(&SystemConfig::table2());
        let mut p = DiscontinuityPrefetcher::new(1);
        // Training pass: A(10) -> B(500) discontinuity.
        let mut now = 0;
        for _ in 0..2 {
            for b in [10u64, 500, 501] {
                let mut ctx = PrefetchCtx {
                    now,
                    core: 0,
                    l2: &mut l2,
                };
                let _ = p.on_block_fetch(&mut ctx, BlockAddr(b), FetchKind::Miss);
                now += 200;
                let mut ctx = PrefetchCtx {
                    now,
                    core: 0,
                    l2: &mut l2,
                };
                p.tick(&mut ctx);
            }
            // Break the sequence so last_block resets realistically.
            let mut ctx = PrefetchCtx {
                now,
                core: 0,
                l2: &mut l2,
            };
            let _ = p.on_block_fetch(&mut ctx, BlockAddr(9000), FetchKind::Miss);
            now += 200;
        }
        // Now fetching block 10 should have prefetched 500.
        let mut ctx = PrefetchCtx {
            now,
            core: 0,
            l2: &mut l2,
        };
        let _ = p.on_block_fetch(&mut ctx, BlockAddr(10), FetchKind::Miss);
        now += 500;
        let mut ctx = PrefetchCtx {
            now,
            core: 0,
            l2: &mut l2,
        };
        p.tick(&mut ctx);
        let mut ctx = PrefetchCtx {
            now,
            core: 0,
            l2: &mut l2,
        };
        let got = p.on_block_fetch(&mut ctx, BlockAddr(500), FetchKind::Miss);
        assert!(got.is_some(), "discontinuous target should be supplied");
    }

    #[test]
    fn sequential_transitions_not_recorded() {
        let mut l2 = L2::new(&SystemConfig::table2());
        let mut p = DiscontinuityPrefetcher::new(1);
        for b in [100u64, 101, 102, 103] {
            let mut ctx = PrefetchCtx {
                now: 0,
                core: 0,
                l2: &mut l2,
            };
            let _ = p.on_block_fetch(&mut ctx, BlockAddr(b), FetchKind::L1Hit);
        }
        assert!(p.cores[0].lookup(BlockAddr(100)).is_none());
        assert!(p.cores[0].lookup(BlockAddr(101)).is_none());
    }
}
