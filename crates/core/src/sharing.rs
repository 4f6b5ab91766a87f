//! Cross-core metadata organization (the MANA/Triangel-style sharing
//! axis layered on the paper's per-core TIFS metadata).
//!
//! TIFS as published provisions temporal metadata per core: each core
//! owns an IML capacity share, and the Index Table front end is
//! consulted without port pressure. Later temporal-prefetching work
//! (MANA, Triangel) shows the area/performance trade-off is won by
//! *sharing and right-sizing* that metadata across cores: one pooled
//! history budget that miss-heavy cores can overdraw, behind a
//! ports-limited shared front end. [`MetadataOrg`] selects between the
//! two worlds at identical total storage (iso-storage), and
//! [`HistoryBuffers`] implements the capacity side:
//!
//! * [`MetadataOrg::PrivatePerCore`] — the paper's organization; every
//!   structure and counter behaves exactly as before this axis existed;
//! * [`MetadataOrg::Shared`] with [`CapacityPartition::PerCoreQuota`] —
//!   the pooled budget is statically split `total / N`, so capacity
//!   behaves exactly like private logs while the shared front end's
//!   port contention ([`MetadataPorts`](tifs_sim::metadata::MetadataPorts))
//!   applies;
//! * [`MetadataOrg::Shared`] with [`CapacityPartition::FullyShared`] —
//!   one pool, globally-oldest eviction: a core with dense misses
//!   consumes the quiet cores' unused share.
//!
//! Degenerate configurations are *byte-identical* to private metadata —
//! a `Shared` organization at 1 core, or at N cores with per-core
//! quotas and unlimited ports, produces the same
//! [`SimReport`](tifs_sim::stats::SimReport) bytes as
//! [`PrivatePerCore`](MetadataOrg::PrivatePerCore) — pinned by the
//! `sharing_equivalence` property suite in `tifs-experiments`.

use std::collections::VecDeque;

use tifs_trace::BlockAddr;

use crate::iml::{Iml, ImlGroup};

/// How the pooled history capacity of a [`MetadataOrg::Shared`]
/// organization is divided among cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapacityPartition {
    /// Static quotas: each core may retain `total / N` entries, exactly
    /// as if the logs were private (equal-area control arm).
    PerCoreQuota,
    /// One pool with globally-oldest eviction: any core may consume any
    /// entry, so demand-heavy cores overdraw the quiet cores' share.
    FullyShared,
}

/// Cross-core organization of the TIFS metadata (Index Table front end
/// + IML history storage).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetadataOrg {
    /// The paper's organization: per-core capacity, un-arbitered access.
    PrivatePerCore,
    /// One chip-shared metadata structure at the same total storage.
    Shared {
        /// Access-port ways the shared structure serves per cycle; an
        /// operation is delayed one cycle per `ways` operations other
        /// cores issued earlier in the same cycle. `0` = unlimited
        /// ports (zero contention).
        ways: usize,
        /// How the pooled history capacity is divided.
        capacity_partition: CapacityPartition,
    },
}

impl MetadataOrg {
    /// Shared metadata with static per-core quotas.
    pub fn shared_quota(ways: usize) -> MetadataOrg {
        MetadataOrg::Shared {
            ways,
            capacity_partition: CapacityPartition::PerCoreQuota,
        }
    }

    /// Shared metadata with one fully-shared pool.
    pub fn shared_pool(ways: usize) -> MetadataOrg {
        MetadataOrg::Shared {
            ways,
            capacity_partition: CapacityPartition::FullyShared,
        }
    }

    /// Port ways the organization arbitrates (`0` = unlimited; private
    /// metadata is by definition un-arbitered).
    pub fn port_ways(self) -> usize {
        match self {
            MetadataOrg::PrivatePerCore => 0,
            MetadataOrg::Shared { ways, .. } => ways,
        }
    }

    /// Short display label (figure legends, report rows).
    pub fn label(self) -> String {
        match self {
            MetadataOrg::PrivatePerCore => "private".into(),
            MetadataOrg::Shared {
                ways,
                capacity_partition: CapacityPartition::PerCoreQuota,
            } => format!("shared-quota/w{ways}"),
            MetadataOrg::Shared {
                ways,
                capacity_partition: CapacityPartition::FullyShared,
            } => format!("shared-pool/w{ways}"),
        }
    }
}

/// The chip's IML history storage under a [`MetadataOrg`]: per-core
/// logs whose *capacity* is enforced privately, by static quota, or
/// from one shared pool with globally-oldest eviction.
///
/// Positions stay per-core absolute in every organization (an
/// [`ImlPtr`](crate::index::ImlPtr) is `(core, pos)` regardless of
/// where the capacity came from), so the Index Table, stream readers,
/// and the virtualized-L2 address mapping are organization-agnostic.
#[derive(Clone, Debug)]
pub struct HistoryBuffers {
    imls: Vec<Iml>,
    /// Per-core append stamps mirroring each log's retained entries
    /// (only maintained for the fully-shared pool).
    stamps: Vec<VecDeque<u64>>,
    next_stamp: u64,
    /// Total pool capacity (fully-shared only; `None` = unbounded).
    pool_capacity: Option<usize>,
    pool_evictions: u64,
}

impl HistoryBuffers {
    /// Creates the history storage for `num_cores` cores with a
    /// per-core budget share of `entries_per_core` (`None` = unbounded)
    /// under `org`. A shared pool's total capacity is
    /// `entries_per_core * num_cores` — iso-storage with the private
    /// organization by construction.
    pub fn new(
        num_cores: usize,
        entries_per_core: Option<usize>,
        org: MetadataOrg,
    ) -> HistoryBuffers {
        let pooled = matches!(
            org,
            MetadataOrg::Shared {
                capacity_partition: CapacityPartition::FullyShared,
                ..
            }
        );
        let (per_iml, pool_capacity) = if pooled {
            // Logs are unbounded; the allocator enforces the pool.
            (None, entries_per_core.map(|e| e * num_cores))
        } else {
            // Private and per-core-quota organizations are the same
            // structures: each log self-enforces its share.
            (entries_per_core, None)
        };
        HistoryBuffers {
            imls: (0..num_cores).map(|_| Iml::new(per_iml)).collect(),
            stamps: (0..num_cores).map(|_| VecDeque::new()).collect(),
            next_stamp: 0,
            pool_capacity,
            pool_evictions: 0,
        }
    }

    /// Number of per-core logs.
    pub fn num_cores(&self) -> usize {
        self.imls.len()
    }

    /// Appends one miss to `core`'s log, enforcing the pool capacity
    /// when fully shared; returns the entry's absolute position.
    pub fn append(&mut self, core: usize, block: BlockAddr, svb_hit: bool) -> u64 {
        let pos = self.imls[core].append(block, svb_hit);
        if let Some(pool) = self.pool_capacity {
            self.stamps[core].push_back(self.next_stamp);
            self.next_stamp += 1;
            while self.total_len() > pool {
                self.evict_globally_oldest();
            }
        }
        pos
    }

    fn total_len(&self) -> usize {
        self.imls.iter().map(Iml::len).sum()
    }

    fn evict_globally_oldest(&mut self) {
        let victim = self
            .stamps
            .iter()
            .enumerate()
            .filter_map(|(c, s)| s.front().map(|&stamp| (stamp, c)))
            .min()
            .map(|(_, c)| c)
            .expect("pool over capacity implies a retained entry");
        self.imls[victim].evict_oldest();
        self.stamps[victim].pop_front();
        self.pool_evictions += 1;
    }

    /// Reads up to `n` consecutive entries of `core`'s log starting at
    /// `pos` (one virtualized group read), borrowed from the log.
    pub fn read_group(&self, core: usize, pos: u64, n: usize) -> ImlGroup<'_> {
        self.imls[core].read_group(pos, n)
    }

    /// Whether `pos` still refers to a retained entry of `core`'s log.
    pub fn is_valid(&self, core: usize, pos: u64) -> bool {
        self.imls[core].is_valid(pos)
    }

    /// Entries evicted by pool pressure (zero outside the fully-shared
    /// partition) since the last counter reset.
    pub fn pool_evictions(&self) -> u64 {
        self.pool_evictions
    }

    /// Entries currently retained by `core`'s log.
    pub fn core_len(&self, core: usize) -> usize {
        self.imls[core].len()
    }

    /// Context-switch flush of `core`'s history: every retained entry is
    /// discarded (positions stay monotonic, so stale Index-Table pointers
    /// die rather than alias) and, under a fully-shared pool, the core's
    /// stamps go with them — the freed capacity immediately becomes
    /// available to the other cores. Flush drops are not counted as pool
    /// evictions: they are an external event, not capacity pressure.
    pub fn flush_core(&mut self, core: usize) {
        self.imls[core].clear();
        self.stamps[core].clear();
    }

    /// Zeroes the eviction counter (warmup discard); contents are
    /// preserved.
    pub fn reset_counters(&mut self) {
        self.pool_evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iml::ENTRIES_PER_L2_BLOCK;

    const QUOTA: usize = ENTRIES_PER_L2_BLOCK * 2; // 24 entries/core

    #[test]
    fn labels_are_distinct_and_stable() {
        assert_eq!(MetadataOrg::PrivatePerCore.label(), "private");
        assert_eq!(MetadataOrg::shared_quota(2).label(), "shared-quota/w2");
        assert_eq!(MetadataOrg::shared_pool(0).label(), "shared-pool/w0");
        assert_eq!(MetadataOrg::PrivatePerCore.port_ways(), 0);
        assert_eq!(MetadataOrg::shared_quota(3).port_ways(), 3);
    }

    #[test]
    fn quota_partition_matches_private_eviction_exactly() {
        let mut private = HistoryBuffers::new(2, Some(QUOTA), MetadataOrg::PrivatePerCore);
        let mut quota = HistoryBuffers::new(2, Some(QUOTA), MetadataOrg::shared_quota(0));
        for i in 0..100u64 {
            let c = (i % 2) as usize;
            assert_eq!(
                private.append(c, BlockAddr(i), false),
                quota.append(c, BlockAddr(i), false)
            );
        }
        for c in 0..2 {
            assert_eq!(private.core_len(c), quota.core_len(c));
            for pos in 0..50 {
                assert_eq!(private.is_valid(c, pos), quota.is_valid(c, pos));
                assert_eq!(private.read_group(c, pos, 12), quota.read_group(c, pos, 12));
            }
        }
        assert_eq!(quota.pool_evictions(), 0);
    }

    #[test]
    fn fully_shared_pool_lets_a_hot_core_overdraw() {
        // 2 cores, 24 entries/core = 48-entry pool. Core 0 appends 40,
        // core 1 appends 8: privately core 0 would have lost 16 entries,
        // pooled it keeps all 40.
        let mut pool = HistoryBuffers::new(2, Some(QUOTA), MetadataOrg::shared_pool(0));
        for i in 0..40u64 {
            pool.append(0, BlockAddr(i), false);
        }
        for i in 0..8u64 {
            pool.append(1, BlockAddr(100 + i), false);
        }
        assert_eq!(pool.core_len(0), 40, "hot core overdraws its share");
        assert_eq!(pool.core_len(1), 8);
        assert_eq!(pool.pool_evictions(), 0);
        // One more append exceeds the pool: the globally-oldest entry
        // (core 0's first) is evicted.
        pool.append(1, BlockAddr(200), false);
        assert_eq!(pool.pool_evictions(), 1);
        assert!(!pool.is_valid(0, 0));
        assert!(pool.is_valid(0, 1));
        assert_eq!(pool.core_len(0), 39);
    }

    #[test]
    fn pool_eviction_follows_global_age_not_core_order() {
        let mut pool = HistoryBuffers::new(2, Some(QUOTA), MetadataOrg::shared_pool(0));
        // Interleave so core 1 holds the globally-oldest entry when the
        // pool fills.
        pool.append(1, BlockAddr(0), false);
        for i in 0..48u64 {
            pool.append(0, BlockAddr(1 + i), false);
        }
        assert_eq!(pool.pool_evictions(), 1);
        assert!(!pool.is_valid(1, 0), "core 1's older entry evicted first");
        assert!(pool.is_valid(0, 0));
    }

    #[test]
    fn unbounded_pool_never_evicts() {
        let mut pool = HistoryBuffers::new(2, None, MetadataOrg::shared_pool(2));
        for i in 0..500u64 {
            pool.append((i % 2) as usize, BlockAddr(i), false);
        }
        assert_eq!(pool.pool_evictions(), 0);
        assert_eq!(pool.core_len(0) + pool.core_len(1), 500);
    }

    #[test]
    fn flush_core_frees_pool_capacity_for_other_cores() {
        let mut pool = HistoryBuffers::new(2, Some(QUOTA), MetadataOrg::shared_pool(0));
        for i in 0..40u64 {
            pool.append(0, BlockAddr(i), false);
        }
        pool.flush_core(0);
        assert_eq!(pool.core_len(0), 0);
        assert!(!pool.is_valid(0, 39));
        // The freed 40 entries are usable by core 1 without evictions.
        for i in 0..48u64 {
            pool.append(1, BlockAddr(100 + i), false);
        }
        assert_eq!(pool.pool_evictions(), 0, "flush is not an eviction");
        assert_eq!(pool.core_len(1), 48);
        // Core 0's positions keep counting after the flush.
        assert_eq!(pool.append(0, BlockAddr(7), false), 40);
    }

    #[test]
    fn reset_clears_counter_but_not_contents() {
        let mut pool = HistoryBuffers::new(1, Some(QUOTA), MetadataOrg::shared_pool(0));
        for i in 0..30u64 {
            pool.append(0, BlockAddr(i), false);
        }
        assert!(pool.pool_evictions() > 0);
        pool.reset_counters();
        assert_eq!(pool.pool_evictions(), 0);
        assert_eq!(pool.core_len(0), QUOTA);
    }
}
