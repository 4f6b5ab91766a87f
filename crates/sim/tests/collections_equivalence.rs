//! Old-vs-new equivalence for the hot-loop structures: the
//! open-addressed/sorted replacements must match the std-collection
//! semantics they displaced, operation for operation.
//!
//! Three models:
//!
//! * [`FillQueue`] vs `HashMap<block, ready>` + the PR 1-era
//!   sort-before-drain: the queue's structural pop order must equal
//!   sorting a drained map by `(ready, block)` — the property that let
//!   the workarounds be deleted instead of maintained.
//! * [`BlockMap`] vs `HashMap`: point lookups, upserts, and
//!   backward-shift deletion under forced collision pressure.
//! * The flat [`SetAssocCache`] vs a per-set `Vec` reference
//!   implementation of true LRU (the shape the cache had before it was
//!   flattened into one contiguous slab), from 1 to 16 ways.
//!
//! Each case drives both sides through one randomized op sequence and
//! compares every observable result, not just the final state.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::iter_over_hash_type,
    reason = "the std HashMap is the model under test; its enumerations are sorted \
              or check each entry on its own, so visit order cannot change the outcome"
)]

use std::collections::HashMap;

use proptest::prelude::*;
use tifs_collections::{BlockMap, FillQueue};
use tifs_sim::cache::SetAssocCache;
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

proptest! {
    #[test]
    fn fill_queue_matches_hashmap_model(seed in 0u64..5_000) {
        let mut rng = Rng(seed);
        let mut queue: FillQueue<u64> = FillQueue::new();
        let mut model: HashMap<BlockAddr, (u64, u64)> = HashMap::new();
        let mut now = 0u64;
        for _ in 0..300 {
            match rng.next() % 4 {
                0 | 1 => {
                    // Insert (an upsert, like HashMap::insert).
                    let block = BlockAddr(rng.next() % 24);
                    let ready = now + rng.next() % 40;
                    let value = rng.next();
                    queue.insert(ready, block, value);
                    model.insert(block, (ready, value));
                }
                2 => {
                    let block = BlockAddr(rng.next() % 24);
                    prop_assert_eq!(queue.contains(block), model.contains_key(&block));
                    prop_assert_eq!(queue.remove(block), model.remove(&block));
                }
                _ => {
                    // Advance time and drain. The old code collected the
                    // ready entries of a HashMap and sorted by (ready,
                    // block); the queue must pop the same set in the
                    // same order structurally.
                    now += rng.next() % 30;
                    let mut expect: Vec<(u64, BlockAddr)> = model
                        .iter()
                        .filter(|&(_, &(r, _))| r <= now)
                        .map(|(&b, &(r, _))| (r, b))
                        .collect();
                    expect.sort_unstable_by_key(|&(r, b)| (r, b.0));
                    let mut got = Vec::new();
                    while let Some((r, b, v)) = queue.pop_ready(now) {
                        prop_assert_eq!(model.remove(&b), Some((r, v)));
                        got.push((r, b));
                    }
                    prop_assert_eq!(got, expect, "drain order must be the sorted order");
                }
            }
            prop_assert_eq!(queue.len(), model.len());
        }
    }

    #[test]
    fn block_map_matches_hashmap_model(seed in 0u64..5_000) {
        let mut rng = Rng(seed);
        // A tiny initial table plus a narrow key range forces collision
        // clusters, growth, and backward-shift chains.
        let mut map: BlockMap<u64> = BlockMap::with_capacity(4);
        let mut model: HashMap<BlockAddr, u64> = HashMap::new();
        for _ in 0..400 {
            let block = BlockAddr(rng.next() % 48);
            match rng.next() % 3 {
                0 => {
                    let value = rng.next();
                    prop_assert_eq!(map.insert(block, value), model.insert(block, value));
                }
                1 => {
                    prop_assert_eq!(map.get(block), model.get(&block).copied());
                    prop_assert_eq!(map.contains(block), model.contains_key(&block));
                }
                _ => {
                    prop_assert_eq!(map.remove(block), model.remove(&block));
                }
            }
            prop_assert_eq!(map.len(), model.len());
        }
        // Every surviving key must still be reachable.
        for (&b, &v) in &model {
            prop_assert_eq!(map.get(b), Some(v));
        }
    }
}

/// The pre-flattening reference: per-set `Vec`s, MRU first.
struct RefCache {
    sets: Vec<Vec<BlockAddr>>,
    ways: usize,
    insertions: u64,
    evictions: u64,
}

impl RefCache {
    fn new(num_sets: usize, ways: usize) -> RefCache {
        RefCache {
            sets: vec![Vec::new(); num_sets],
            ways,
            insertions: 0,
            evictions: 0,
        }
    }

    fn set_of(&self, b: BlockAddr) -> usize {
        (b.0 as usize) & (self.sets.len() - 1)
    }

    fn access(&mut self, b: BlockAddr) -> bool {
        let s = self.set_of(b);
        let set = &mut self.sets[s];
        match set.iter().position(|&x| x == b) {
            Some(pos) => {
                let x = set.remove(pos);
                set.insert(0, x);
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, b: BlockAddr) -> Option<BlockAddr> {
        let s = self.set_of(b);
        let ways = self.ways;
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&x| x == b) {
            let x = set.remove(pos);
            set.insert(0, x);
            return None;
        }
        self.insertions += 1;
        set.insert(0, b);
        if set.len() > ways {
            self.evictions += 1;
            set.pop()
        } else {
            None
        }
    }

    fn invalidate(&mut self, b: BlockAddr) -> bool {
        let s = self.set_of(b);
        let set = &mut self.sets[s];
        match set.iter().position(|&x| x == b) {
            Some(pos) => {
                set.remove(pos);
                true
            }
            None => false,
        }
    }
}

proptest! {
    #[test]
    fn flat_cache_matches_reference_lru(
        seed in 0u64..5_000,
        ways in prop_oneof![1usize..=4, Just(16usize)],
    ) {
        let mut rng = Rng(seed);
        // 8 sets x `ways` ways, 64-byte blocks; 16 ways is the L2
        // directory's associativity. Each set sees at least twice as many
        // tags as it has ways, so evictions happen at every width.
        let mut cache = SetAssocCache::new(8 * ways * 64, ways);
        let mut reference = RefCache::new(8, ways);
        prop_assert_eq!(cache.num_sets(), 8);
        let tags = 2 * ways.max(4) as u64;
        for _ in 0..400 {
            let b = BlockAddr(rng.next() % (8 * tags));
            match rng.next() % 5 {
                0 => prop_assert_eq!(cache.access(b), reference.access(b)),
                1 => {
                    let s = reference.set_of(b);
                    prop_assert_eq!(cache.peek(b), reference.sets[s].contains(&b));
                }
                2 => prop_assert_eq!(cache.insert(b), reference.insert(b)),
                3 => {
                    // Re-insert the set's MRU block back to back: the
                    // insert's early return must leave what a promote
                    // would.
                    let s = reference.set_of(b);
                    if let Some(&mru) = reference.sets[s].first() {
                        for _ in 0..2 {
                            prop_assert_eq!(cache.insert(mru), reference.insert(mru));
                        }
                    }
                }
                _ => prop_assert_eq!(cache.invalidate(b), reference.invalidate(b)),
            }
            let ref_len: usize = reference.sets.iter().map(Vec::len).sum();
            prop_assert_eq!(cache.len(), ref_len);
            prop_assert_eq!(cache.churn(), (reference.insertions, reference.evictions));
        }
        let mut ref_blocks: Vec<BlockAddr> =
            reference.sets.iter().flatten().copied().collect();
        ref_blocks.sort_unstable();
        prop_assert_eq!(cache.resident_blocks(), ref_blocks);
    }
}
