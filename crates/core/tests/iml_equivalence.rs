//! Old-vs-new equivalence for the arena IML: the flat ring must match
//! the `VecDeque` log it replaced — every append position, every
//! retained-window read (borrowed from the ring, possibly split at its
//! wrap), every eviction — and the shared-pool history
//! organization must keep its PR 5 append-stamp semantics (the globally
//! oldest entry across cores is the one evicted, in append order).

use std::collections::VecDeque;

use proptest::prelude::*;
use tifs_core::iml::{Iml, ImlEntry, ENTRIES_PER_L2_BLOCK};
use tifs_core::{HistoryBuffers, MetadataOrg};
use tifs_trace::BlockAddr;

/// Deterministic op-stream generator (splitmix-style).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The pre-ring reference: a `VecDeque` with an absolute base position.
struct RefIml {
    entries: VecDeque<ImlEntry>,
    base: u64,
    appended: u64,
    capacity: Option<usize>,
}

impl RefIml {
    fn new(capacity: Option<usize>) -> RefIml {
        RefIml {
            entries: VecDeque::new(),
            base: 0,
            appended: 0,
            capacity,
        }
    }

    fn append(&mut self, block: BlockAddr, svb_hit: bool) -> u64 {
        let pos = self.appended;
        self.entries.push_back(ImlEntry { block, svb_hit });
        self.appended += 1;
        if let Some(c) = self.capacity {
            while self.entries.len() > c {
                self.entries.pop_front();
                self.base += 1;
            }
        }
        pos
    }

    fn get(&self, pos: u64) -> Option<ImlEntry> {
        if pos < self.base || pos >= self.appended {
            return None;
        }
        self.entries.get((pos - self.base) as usize).copied()
    }

    fn read_group(&self, pos: u64, n: usize) -> Vec<ImlEntry> {
        let mut out = Vec::new();
        for i in 0..n as u64 {
            match self.get(pos + i) {
                Some(e) => out.push(e),
                None => break,
            }
        }
        out
    }

    fn evict_oldest(&mut self) -> Option<ImlEntry> {
        let e = self.entries.pop_front()?;
        self.base += 1;
        Some(e)
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.base = self.appended;
    }
}

proptest! {
    #[test]
    fn iml_ring_matches_vecdeque_model(seed in 0u64..5_000, cap_choice in 0u8..6) {
        // Non-power-of-two and exactly-power-of-two bounds, unbounded,
        // and a bound the slab reaches only after several doublings,
        // once plain and once flushed mid-stream.
        let capacity = match cap_choice {
            0 => None,
            1 => Some(12),
            2 => Some(16),
            3 => Some(20),
            _ => Some(100),
        };
        let flush_at = (cap_choice == 5).then_some(200);
        let mut rng = Rng(seed);
        let mut ring = Iml::new(capacity);
        let mut model = RefIml::new(capacity);
        for step in 0..400 {
            if Some(step) == flush_at {
                ring.clear();
                model.clear();
            }
            match rng.next() % 8 {
                0..=3 => {
                    let block = BlockAddr(rng.next() % 1000);
                    let hit = rng.next() & 1 == 0;
                    prop_assert_eq!(ring.append(block, hit), model.append(block, hit));
                }
                4 => {
                    prop_assert_eq!(ring.evict_oldest(), model.evict_oldest());
                }
                5 => {
                    // Probe around the retained window, including
                    // overwritten and future positions.
                    let pos = model.appended.saturating_sub(rng.next() % 48) + rng.next() % 4;
                    prop_assert_eq!(ring.get(pos), model.get(pos));
                    prop_assert_eq!(ring.is_valid(pos), model.get(pos).is_some());
                }
                _ => {
                    let pos = model.appended.saturating_sub(rng.next() % 48) + rng.next() % 4;
                    prop_assert_eq!(
                        ring.read_group(pos, ENTRIES_PER_L2_BLOCK).iter().copied().collect::<Vec<_>>(),
                        model.read_group(pos, ENTRIES_PER_L2_BLOCK)
                    );
                }
            }
            prop_assert_eq!(ring.len(), model.entries.len());
            prop_assert_eq!(ring.next_pos(), model.appended);
            prop_assert_eq!(ring.is_empty(), model.entries.is_empty());
        }
    }

    #[test]
    fn borrowed_group_reads_match_the_model_everywhere(seed in 0u64..5_000, cap_choice in 0u8..4) {
        // After every op, read a group of each size at every position
        // from just below the retained window to just past its end. The
        // small bounds wrap the ring every few appends, so groups split
        // at the wrap; evictions and flushes move the window's start.
        let capacity = [None, Some(12), Some(16), Some(20)][cap_choice as usize];
        let mut rng = Rng(seed);
        let mut ring = Iml::new(capacity);
        let mut model = RefIml::new(capacity);
        for step in 0..300 {
            match rng.next() % 16 {
                0 => {
                    ring.clear();
                    model.clear();
                }
                1..=3 => {
                    prop_assert_eq!(ring.evict_oldest(), model.evict_oldest());
                }
                _ => {
                    let block = BlockAddr(rng.next() % 1000);
                    let hit = rng.next() & 1 == 0;
                    prop_assert_eq!(ring.append(block, hit), model.append(block, hit));
                }
            }
            for pos in model.base.saturating_sub(2)..model.appended + 2 {
                for n in [1, 5, ENTRIES_PER_L2_BLOCK] {
                    let group = ring.read_group(pos, n);
                    let expect = model.read_group(pos, n);
                    prop_assert_eq!(group.len(), expect.len(), "step {} pos {} n {}", step, pos, n);
                    prop_assert_eq!(group.is_empty(), expect.is_empty());
                    let got: Vec<ImlEntry> = group.iter().copied().collect();
                    prop_assert_eq!(got, expect, "step {} pos {} n {}", step, pos, n);
                }
            }
        }
    }

    #[test]
    fn shared_pool_evicts_globally_oldest_in_append_order(
        seed in 0u64..5_000,
        cores in 2usize..=4,
        per_core in 4usize..=8,
    ) {
        // Reference: every append goes into one global FIFO tagged with
        // its core; the pool holding `cores * per_core` entries evicts
        // the globally oldest append — PR 5's append-stamp contract.
        let mut rng = Rng(seed);
        let mut history = HistoryBuffers::new(
            cores,
            Some(per_core * ENTRIES_PER_L2_BLOCK),
            MetadataOrg::shared_pool(1),
        );
        let pool = cores * per_core * ENTRIES_PER_L2_BLOCK;
        let mut fifo: VecDeque<(usize, u64)> = VecDeque::new();
        let mut appends_per_core = vec![0u64; cores];
        for _ in 0..600 {
            let core = (rng.next() % cores as u64) as usize;
            let block = BlockAddr(rng.next() % 512);
            let pos = history.append(core, block, false);
            prop_assert_eq!(pos, appends_per_core[core], "positions stay per-core absolute");
            fifo.push_back((core, pos));
            appends_per_core[core] += 1;
            while fifo.len() > pool {
                fifo.pop_front();
            }
            // The retained window of every core's log is exactly the
            // suffix of its appends still in the global FIFO.
            for c in 0..cores {
                let expect: Vec<u64> = fifo
                    .iter()
                    .filter(|&&(fc, _)| fc == c)
                    .map(|&(_, p)| p)
                    .collect();
                prop_assert_eq!(history.core_len(c), expect.len());
                if let (Some(&first), Some(&last)) = (expect.first(), expect.last()) {
                    prop_assert!(history.is_valid(c, first));
                    prop_assert!(history.is_valid(c, last));
                    prop_assert!(first == 0 || !history.is_valid(c, first - 1));
                }
            }
        }
        let total: u64 = appends_per_core.iter().sum();
        prop_assert_eq!(
            history.pool_evictions(),
            total - fifo.len() as u64,
            "one pool eviction per fallen-off append"
        );
    }
}
