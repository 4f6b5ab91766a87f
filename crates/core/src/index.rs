//! The Index Table (paper Sections 5.1 and 5.2.2): a shared map from block
//! address to the most recent IML position where that address was logged,
//! across all cores' IMLs.
//!
//! Two organizations:
//!
//! * **Dedicated** — a standalone table (the paper's Figure 11 analysis
//!   assumes a perfect dedicated table).
//! * **Embedded** — pointers live as extra bits in the L2 tag array:
//!   lookups piggyback on the L2 access (free), updates go through the tag
//!   pipelines at lowest priority and may be *dropped* under back-pressure,
//!   and a pointer dies when its block's L2 tag is evicted.
//!
//! The embedding mechanics (drop decisions, eviction notifications) are
//! driven by the prefetcher; this structure records the consequences.
//!
//! Orthogonally to the organization, the table may be *bounded*
//! ([`IndexCapacity`]): entries are owned by the core whose IML they
//! point into, and capacity is enforced either as static per-core
//! quotas or as one pooled budget with globally-oldest eviction —
//! mirroring the [`HistoryBuffers`](crate::sharing::HistoryBuffers)
//! capacity axis so the whole metadata stack (history *and* index) can
//! be pooled. The unbounded table remains the default and behaves
//! exactly as before this axis existed.

use std::collections::VecDeque;

use tifs_collections::BlockMap;
use tifs_trace::BlockAddr;

/// A pointer into one core's IML.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImlPtr {
    /// Which core's IML the address was logged in.
    pub core: u8,
    /// Absolute position within that IML.
    pub pos: u64,
}

/// Index-table organization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// Standalone structure; never loses entries except by replacement.
    Dedicated,
    /// Embedded in L2 tags; entries die on L2 eviction and updates may be
    /// dropped.
    Embedded,
}

/// A capacity bound on the Index Table, owned per pointer-target core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexCapacity {
    /// Entries each core's pointers may occupy (quota mode) or each
    /// core's share of the pooled budget.
    pub per_core: usize,
    /// Cores sharing the table; the pooled budget is
    /// `per_core * num_cores` — iso-storage with quotas by construction.
    pub num_cores: usize,
    /// `true` = one pooled budget with globally-oldest eviction (a hot
    /// core's pointers overdraw the quiet cores' share); `false` =
    /// static per-core quotas.
    pub pooled: bool,
}

/// The shared Index Table.
#[derive(Clone, Debug)]
pub struct IndexTable {
    map: BlockMap<ImlPtr>,
    kind: IndexKind,
    /// `None` = unbounded (the paper's configuration).
    capacity: Option<IndexCapacity>,
    /// Insertion stamp per live entry (bounded tables only); a queue
    /// record whose stamp no longer matches is stale and skipped.
    stamps: BlockMap<u64>,
    /// Per-owner-core FIFO of `(stamp, block)` insertions, lazily
    /// filtered against `stamps` (bounded tables only).
    queues: Vec<VecDeque<(u64, BlockAddr)>>,
    /// Live entries owned by each core (bounded tables only).
    counts: Vec<usize>,
    next_stamp: u64,
    updates: u64,
    dropped_updates: u64,
    invalidations: u64,
}

impl IndexTable {
    /// Creates an empty unbounded table of the given organization.
    pub fn new(kind: IndexKind) -> IndexTable {
        IndexTable::with_capacity(kind, None)
    }

    /// Creates an empty table with an optional capacity bound
    /// (`None` = unbounded, identical to [`IndexTable::new`]).
    pub fn with_capacity(kind: IndexKind, capacity: Option<IndexCapacity>) -> IndexTable {
        let cores = capacity.map_or(0, |c| {
            assert!(
                c.per_core >= 1 && c.num_cores >= 1,
                "index capacity too small: {c:?}"
            );
            c.num_cores
        });
        IndexTable {
            map: BlockMap::new(),
            kind,
            capacity,
            stamps: BlockMap::new(),
            queues: (0..cores).map(|_| VecDeque::new()).collect(),
            counts: vec![0; cores],
            next_stamp: 0,
            updates: 0,
            dropped_updates: 0,
            invalidations: 0,
        }
    }

    /// Organization.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Most recent logged occurrence of `block`, if indexed.
    pub fn lookup(&self, block: BlockAddr) -> Option<ImlPtr> {
        self.map.get(block)
    }

    /// Points `block` at a fresh IML position. `applied` is false when the
    /// embedded tag-pipeline dropped the update (paper: "updates are
    /// discarded" under back-pressure), in which case the stale pointer is
    /// retained. On a bounded table the insertion may evict another
    /// pointer — the owner core's oldest under quotas, the globally
    /// oldest under pooling — counted as an invalidation.
    pub fn update(&mut self, block: BlockAddr, ptr: ImlPtr, applied: bool) {
        if !applied {
            self.dropped_updates += 1;
            return;
        }
        self.updates += 1;
        let Some(cap) = self.capacity else {
            self.map.insert(block, ptr);
            return;
        };
        let owner = ptr.core as usize;
        assert!(owner < cap.num_cores, "pointer core out of range");
        if let Some(prev) = self.map.insert(block, ptr) {
            // Replacement: the old record in its owner's queue goes
            // stale via the stamp change below.
            self.counts[prev.core as usize] -= 1;
        }
        self.stamps.insert(block, self.next_stamp);
        self.queues[owner].push_back((self.next_stamp, block));
        self.next_stamp += 1;
        self.counts[owner] += 1;
        if cap.pooled {
            while self.map.len() > cap.per_core * cap.num_cores {
                self.evict_globally_oldest();
            }
        } else {
            while self.counts[owner] > cap.per_core {
                self.evict_oldest_of(owner);
            }
        }
    }

    /// Pops stale records off `core`'s queue; returns the front valid
    /// stamp, if any live entry remains.
    fn front_valid_stamp(&mut self, core: usize) -> Option<u64> {
        while let Some(&(stamp, block)) = self.queues[core].front() {
            if self.stamps.get(block) == Some(stamp) {
                return Some(stamp);
            }
            self.queues[core].pop_front();
        }
        None
    }

    fn evict_oldest_of(&mut self, core: usize) {
        self.front_valid_stamp(core)
            .expect("count over quota implies a live entry");
        let (_, block) = self.queues[core].pop_front().expect("front just probed");
        self.remove_live(block);
    }

    fn evict_globally_oldest(&mut self) {
        let victim = (0..self.queues.len())
            .filter_map(|c| self.front_valid_stamp(c).map(|stamp| (stamp, c)))
            .min()
            .map(|(_, c)| c)
            .expect("pool over capacity implies a live entry");
        let (_, block) = self.queues[victim].pop_front().expect("front just probed");
        self.remove_live(block);
    }

    /// Removes a known-live entry, charging an invalidation.
    fn remove_live(&mut self, block: BlockAddr) {
        let ptr = self.map.remove(block).expect("entry is live");
        self.stamps.remove(block);
        self.counts[ptr.core as usize] -= 1;
        self.invalidations += 1;
    }

    /// L2 evicted `block`: an embedded pointer dies with its tag.
    pub fn on_l2_evict(&mut self, block: BlockAddr) {
        if self.kind != IndexKind::Embedded {
            return;
        }
        let Some(ptr) = self.map.remove(block) else {
            return;
        };
        if self.capacity.is_some() {
            self.stamps.remove(block);
            self.counts[ptr.core as usize] -= 1;
        }
        self.invalidations += 1;
    }

    /// Context-switch flush: removes every pointer into `core`'s IML.
    /// The log was cleared, so each pointer is permanently dead (cleared
    /// positions never revalidate) — retaining them would waste bounded
    /// capacity and shadow the incoming program's fresh pointers behind
    /// dead lookups. Charged to the invalidation counter.
    pub fn flush_core(&mut self, core: u8) {
        if self.capacity.is_some() {
            while let Some((stamp, block)) = self.queues[core as usize].pop_front() {
                if self.stamps.get(block) == Some(stamp) {
                    self.remove_live(block);
                }
            }
        } else {
            let owned: Vec<BlockAddr> = self
                .map
                .iter()
                .filter(|&(_, ptr)| ptr.core == core)
                .map(|(block, _)| block)
                .collect();
            for block in owned {
                self.map.remove(block);
                self.invalidations += 1;
            }
        }
    }

    /// Indexed addresses.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when no address is indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// (applied updates, dropped updates, eviction invalidations).
    pub fn churn(&self) -> (u64, u64, u64) {
        (self.updates, self.dropped_updates, self.invalidations)
    }

    /// Zeroes churn counters (warmup discard); contents are preserved.
    pub fn reset_counters(&mut self) {
        self.updates = 0;
        self.dropped_updates = 0;
        self.invalidations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_then_lookup() {
        let mut t = IndexTable::new(IndexKind::Dedicated);
        let ptr = ImlPtr { core: 2, pos: 77 };
        t.update(BlockAddr(5), ptr, true);
        assert_eq!(t.lookup(BlockAddr(5)), Some(ptr));
        assert_eq!(t.lookup(BlockAddr(6)), None);
    }

    #[test]
    fn recent_heuristic_latest_wins() {
        let mut t = IndexTable::new(IndexKind::Dedicated);
        t.update(BlockAddr(5), ImlPtr { core: 0, pos: 1 }, true);
        t.update(BlockAddr(5), ImlPtr { core: 1, pos: 9 }, true);
        assert_eq!(t.lookup(BlockAddr(5)), Some(ImlPtr { core: 1, pos: 9 }));
    }

    #[test]
    fn dropped_update_keeps_stale_pointer() {
        let mut t = IndexTable::new(IndexKind::Embedded);
        t.update(BlockAddr(5), ImlPtr { core: 0, pos: 1 }, true);
        t.update(BlockAddr(5), ImlPtr { core: 0, pos: 2 }, false);
        assert_eq!(t.lookup(BlockAddr(5)), Some(ImlPtr { core: 0, pos: 1 }));
        let (applied, dropped, _) = t.churn();
        assert_eq!((applied, dropped), (1, 1));
    }

    #[test]
    fn embedded_dies_on_eviction() {
        let mut t = IndexTable::new(IndexKind::Embedded);
        t.update(BlockAddr(5), ImlPtr { core: 0, pos: 1 }, true);
        t.on_l2_evict(BlockAddr(5));
        assert_eq!(t.lookup(BlockAddr(5)), None);
        assert_eq!(t.churn().2, 1);
    }

    #[test]
    fn dedicated_survives_eviction() {
        let mut t = IndexTable::new(IndexKind::Dedicated);
        t.update(BlockAddr(5), ImlPtr { core: 0, pos: 1 }, true);
        t.on_l2_evict(BlockAddr(5));
        assert!(t.lookup(BlockAddr(5)).is_some());
    }

    fn bounded(per_core: usize, num_cores: usize, pooled: bool) -> IndexTable {
        IndexTable::with_capacity(
            IndexKind::Dedicated,
            Some(IndexCapacity {
                per_core,
                num_cores,
                pooled,
            }),
        )
    }

    #[test]
    fn quota_evicts_owner_cores_oldest() {
        let mut t = bounded(2, 2, false);
        for pos in 0..3u64 {
            t.update(BlockAddr(10 + pos), ImlPtr { core: 0, pos }, true);
        }
        // Core 0 is over quota: its oldest pointer (block 10) died.
        assert_eq!(t.lookup(BlockAddr(10)), None);
        assert!(t.lookup(BlockAddr(11)).is_some() && t.lookup(BlockAddr(12)).is_some());
        assert_eq!(t.churn().2, 1);
        // Core 1's quota is untouched by core 0's pressure.
        t.update(BlockAddr(20), ImlPtr { core: 1, pos: 0 }, true);
        t.update(BlockAddr(21), ImlPtr { core: 1, pos: 1 }, true);
        assert_eq!(t.len(), 4);
        assert_eq!(t.churn().2, 1);
    }

    #[test]
    fn quota_replacement_does_not_charge_capacity() {
        let mut t = bounded(2, 1, false);
        t.update(BlockAddr(10), ImlPtr { core: 0, pos: 0 }, true);
        t.update(BlockAddr(11), ImlPtr { core: 0, pos: 1 }, true);
        // Re-pointing an indexed block replaces in place: no eviction.
        t.update(BlockAddr(10), ImlPtr { core: 0, pos: 2 }, true);
        assert_eq!(t.len(), 2);
        assert_eq!(t.churn().2, 0);
        assert_eq!(t.lookup(BlockAddr(10)), Some(ImlPtr { core: 0, pos: 2 }));
        // The stale queue record must not satisfy a later eviction.
        t.update(BlockAddr(12), ImlPtr { core: 0, pos: 3 }, true);
        assert_eq!(t.lookup(BlockAddr(11)), None, "11 is the oldest live");
        assert!(t.lookup(BlockAddr(10)).is_some());
    }

    #[test]
    fn pooled_table_lets_a_hot_core_overdraw() {
        let mut t = bounded(2, 2, true);
        // Core 0 inserts 4 pointers into a 4-entry pool: all live.
        for pos in 0..4u64 {
            t.update(BlockAddr(10 + pos), ImlPtr { core: 0, pos }, true);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.churn().2, 0);
        // Core 1's first insert evicts the globally-oldest (block 10).
        t.update(BlockAddr(20), ImlPtr { core: 1, pos: 0 }, true);
        assert_eq!(t.lookup(BlockAddr(10)), None);
        assert!(t.lookup(BlockAddr(13)).is_some());
        assert_eq!(t.churn().2, 1);
    }

    #[test]
    fn flush_core_removes_only_that_cores_pointers() {
        for table in [
            IndexTable::new(IndexKind::Dedicated),
            bounded(8, 2, false),
            bounded(8, 2, true),
        ] {
            let mut t = table;
            t.update(BlockAddr(10), ImlPtr { core: 0, pos: 0 }, true);
            t.update(BlockAddr(11), ImlPtr { core: 1, pos: 0 }, true);
            t.update(BlockAddr(12), ImlPtr { core: 0, pos: 1 }, true);
            let before = t.churn().2;
            t.flush_core(0);
            assert_eq!(t.lookup(BlockAddr(10)), None);
            assert_eq!(t.lookup(BlockAddr(12)), None);
            assert_eq!(t.lookup(BlockAddr(11)), Some(ImlPtr { core: 1, pos: 0 }));
            assert_eq!(t.len(), 1);
            assert_eq!(t.churn().2, before + 2);
            // A bounded table's freed capacity is reusable.
            t.update(BlockAddr(30), ImlPtr { core: 0, pos: 5 }, true);
            assert!(t.lookup(BlockAddr(30)).is_some());
        }
    }

    #[test]
    fn unbounded_with_capacity_none_matches_new() {
        let mut a = IndexTable::new(IndexKind::Embedded);
        let mut b = IndexTable::with_capacity(IndexKind::Embedded, None);
        for pos in 0..100u64 {
            let blk = BlockAddr(pos % 17);
            a.update(blk, ImlPtr { core: 0, pos }, pos % 3 != 0);
            b.update(blk, ImlPtr { core: 0, pos }, pos % 3 != 0);
            if pos % 5 == 0 {
                a.on_l2_evict(blk);
                b.on_l2_evict(blk);
            }
        }
        assert_eq!(a.churn(), b.churn());
        assert_eq!(a.len(), b.len());
    }
}
