//! Probabilistic instruction prefetcher (paper Figure 1 and the "Perfect"
//! bar of Figure 13).
//!
//! From paper Section 2: "For each L1 instruction miss (also missed by the
//! next-line instruction prefetcher), if the requested block is available
//! on chip, we determine randomly (based on the desired prefetch coverage)
//! if the request should be treated as a prefetch hit. Such hits are
//! instantly filled into the L1 cache. [...] A probability of 100%
//! approximates a perfect and timely instruction prefetcher."

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tifs_sim::prefetch::{FetchKind, IPrefetcher, PrefetchCtx};
use tifs_trace::BlockAddr;

/// Coverage-parameterized oracle prefetcher.
#[derive(Debug)]
pub struct ProbabilisticPrefetcher {
    coverage: f64,
    rng: SmallRng,
    supplied: u64,
    declined: u64,
}

impl ProbabilisticPrefetcher {
    /// Creates the prefetcher with the given target coverage in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is outside `[0, 1]`.
    pub fn new(coverage: f64, seed: u64) -> ProbabilisticPrefetcher {
        assert!((0.0..=1.0).contains(&coverage), "coverage in [0,1]");
        ProbabilisticPrefetcher {
            coverage,
            rng: SmallRng::seed_from_u64(seed),
            supplied: 0,
            declined: 0,
        }
    }

    /// A perfect, timely prefetcher (coverage 1.0) — the paper's upper
    /// bound.
    pub fn perfect(seed: u64) -> ProbabilisticPrefetcher {
        ProbabilisticPrefetcher::new(1.0, seed)
    }
}

impl IPrefetcher for ProbabilisticPrefetcher {
    fn name(&self) -> &'static str {
        "probabilistic"
    }

    fn observes_instructions(&self) -> bool {
        false
    }

    fn on_block_fetch(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        block: BlockAddr,
        kind: FetchKind,
    ) -> Option<u64> {
        if kind == FetchKind::L1Hit {
            return None;
        }
        // Only blocks already on chip can be "prefetched"; compulsory
        // misses proceed normally.
        if !ctx.l2.contains_instruction(block) {
            return None;
        }
        if self.coverage >= 1.0 || self.rng.gen_bool(self.coverage) {
            self.supplied += 1;
            Some(ctx.now)
        } else {
            self.declined += 1;
            None
        }
    }

    fn reset_counters(&mut self) {
        self.supplied = 0;
        self.declined = 0;
    }

    fn counters(&self) -> Vec<(String, f64)> {
        vec![
            ("supplied".into(), self.supplied as f64),
            ("declined".into(), self.declined as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifs_sim::config::SystemConfig;
    use tifs_sim::l2::{L2ReqKind, L2};

    fn ctx_with_block(l2: &mut L2, block: BlockAddr) {
        // Warm the block into the L2 directory.
        l2.request(0, block, L2ReqKind::IFetch, None);
    }

    #[test]
    fn compulsory_misses_never_supplied() {
        let mut l2 = L2::new(&SystemConfig::table2());
        let mut p = ProbabilisticPrefetcher::perfect(1);
        let mut ctx = PrefetchCtx {
            now: 0,
            core: 0,
            l2: &mut l2,
        };
        assert_eq!(
            p.on_block_fetch(&mut ctx, BlockAddr(42), FetchKind::Miss),
            None
        );
    }

    #[test]
    fn perfect_supplies_warm_blocks_instantly() {
        let mut l2 = L2::new(&SystemConfig::table2());
        ctx_with_block(&mut l2, BlockAddr(42));
        let mut p = ProbabilisticPrefetcher::perfect(1);
        let mut ctx = PrefetchCtx {
            now: 500,
            core: 0,
            l2: &mut l2,
        };
        assert_eq!(
            p.on_block_fetch(&mut ctx, BlockAddr(42), FetchKind::Miss),
            Some(500)
        );
    }

    #[test]
    fn coverage_rate_is_respected() {
        let mut l2 = L2::new(&SystemConfig::table2());
        ctx_with_block(&mut l2, BlockAddr(7));
        let mut p = ProbabilisticPrefetcher::new(0.3, 99);
        let mut supplied = 0;
        let n = 20_000;
        for i in 0..n {
            let mut ctx = PrefetchCtx {
                now: i,
                core: 0,
                l2: &mut l2,
            };
            if p.on_block_fetch(&mut ctx, BlockAddr(7), FetchKind::Miss)
                .is_some()
            {
                supplied += 1;
            }
        }
        let rate = supplied as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn l1_hits_ignored() {
        let mut l2 = L2::new(&SystemConfig::table2());
        ctx_with_block(&mut l2, BlockAddr(7));
        let mut p = ProbabilisticPrefetcher::perfect(1);
        let mut ctx = PrefetchCtx {
            now: 0,
            core: 0,
            l2: &mut l2,
        };
        assert_eq!(
            p.on_block_fetch(&mut ctx, BlockAddr(7), FetchKind::L1Hit),
            None
        );
    }

    #[test]
    #[should_panic(expected = "coverage")]
    fn rejects_bad_coverage() {
        ProbabilisticPrefetcher::new(1.5, 0);
    }
}
